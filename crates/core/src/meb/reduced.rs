//! The *reduced* multithreaded elastic buffer: one main register per
//! thread plus a single **dynamically shared** auxiliary register (paper,
//! Sec. III-A and Fig. 6).
//!
//! For `S` threads the reduced MEB stores at most `S + 1` items instead of
//! the full MEB's `2·S`:
//!
//! * each thread owns one main register — enough for full aggregate
//!   throughput under uniform utilization (each of `M` active threads is
//!   accessed once every `M` cycles);
//! * the single shared register absorbs a downstream stall for **one**
//!   thread at a time. The per-thread EB control FSM (EMPTY/HALF/FULL) is
//!   replicated `S` times, but the HALF → FULL transition is gated by the
//!   shared-buffer state so that only one thread may hold two items.
//!
//! The one behavioural difference from the full MEB (paper, Fig. 5): when
//! every thread but one is blocked *and* the blocked thread occupies the
//! shared slots of every stage up to the source, the remaining active
//! thread sees only one slot per stage and tops out at 50 % throughput.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, Ports, ProtocolError,
    SlotView, ThreadMask, TickCtx, Token,
};

use crate::arbiter::Arbiter;
use crate::eb::EbState;
use crate::select::{ReadyCache, SelectState};

/// A reduced MEB: `S` main registers + one shared auxiliary register.
///
/// # Examples
///
/// ```
/// use elastic_core::{ArbiterKind, ReducedMeb};
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<Tagged>::new();
/// let a = b.channel("in", 3);
/// let c = b.channel("out", 3);
/// let mut src = Source::new("src", a, 3);
/// src.push(0, Tagged::new(0, 0, 1));
/// src.push(2, Tagged::new(2, 0, 3));
/// b.add(src);
/// b.add(ReducedMeb::new("meb", a, c, 3, ArbiterKind::RoundRobin.build()));
/// b.add(Sink::new("snk", c, 3, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(6)?;
/// assert_eq!(circuit.stats().total_transfers(c), 2);
/// # Ok(())
/// # }
/// ```
pub struct ReducedMeb<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    /// Replicated single-EB control FSMs (paper: "copies S times the
    /// control logic of a single EB").
    state: Vec<EbState>,
    /// Per-thread main registers (the head item of each thread).
    main: Vec<Option<T>>,
    /// The dynamically shared auxiliary register and its current owner.
    shared: Option<(usize, T)>,
    arbiter: Box<dyn Arbiter>,
    select: SelectState,
    /// Packed "thread has data" mask (`state[t] != EMPTY`), maintained
    /// incrementally at the clock edge: the only transitions that change
    /// it are EMPTY → HALF (enqueue into an empty thread) and
    /// HALF → EMPTY (dequeue without shared refill).
    has: ThreadMask,
    /// Upstream ready word and rotation hint, built and committed once
    /// per cycle: both are functions of registered state only.
    cache: ReadyCache,
}

impl<T: Token> ReducedMeb<T> {
    /// An empty reduced MEB for `threads` threads between `inp` and `out`.
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
            state: vec![EbState::Empty; threads],
            main: vec![None; threads],
            shared: None,
            arbiter,
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            cache: ReadyCache::new(threads),
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: walks every thread's FSM on every call, drives
    /// `ready` bit by bit and always takes the generic arbiter path. Kept
    /// so tests can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        // Upstream ready, per thread (all functions of registered state):
        //  EMPTY — the private main register is free: always ready;
        //  HALF  — ready only while the shared register is free
        //          (paper: "threads in the HALF state are ready to accept
        //          new data, as long as no thread is in the FULL state");
        //  FULL  — never ready.
        let shared_free = self.shared.is_none();
        for t in 0..self.threads {
            let ready = match self.state[t] {
                EbState::Empty => true,
                EbState::Half => shared_free,
                EbState::Full => false,
            };
            ctx.set_ready(self.inp, t, ready);
            self.has.set(t, self.state[t] != EbState::Empty);
        }
        // Downstream valid: arbiter over non-empty threads; head is always
        // the main register.
        let picked = self
            .select
            .select(ctx, self.out, self.arbiter.as_ref(), &self.has);
        match picked {
            Some(t) => {
                let head = self.main[t].clone().expect("non-empty thread has a head");
                ctx.drive_token(self.out, t, head);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    /// Pre-loads tokens before the first cycle (the dataflow "initial
    /// token on the back edge"), at most one per thread (the shared slot
    /// starts free).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ExcessInitialTokens`] if a thread receives
    /// more than one initial token, and
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
            if self.main[t].is_some() {
                // Reduced MEB mains hold one initial token per thread (the
                // shared register cannot be pre-assigned).
                return Err(ProtocolError::ExcessInitialTokens {
                    thread: t,
                    capacity: 1,
                });
            }
            self.main[t] = Some(tok);
            self.state[t] = EbState::Half;
            self.has.set(t, true);
        }
        Ok(self)
    }

    /// Control state of `thread`'s replicated EB FSM.
    pub fn thread_state(&self, thread: usize) -> EbState {
        self.state[thread]
    }

    /// The thread currently owning the shared register, if any.
    pub fn shared_owner(&self) -> Option<usize> {
        self.shared.as_ref().map(|(t, _)| *t)
    }

    /// Items stored across all threads (0–S+1).
    pub fn occupancy_total(&self) -> usize {
        self.main.iter().filter(|m| m.is_some()).count() + usize::from(self.shared.is_some())
    }

    /// Total storage capacity: `S + 1`.
    pub fn capacity(&self) -> usize {
        self.threads + 1
    }

    fn check_invariants(&self) {
        // The body only feeds debug assertions — skip it entirely in
        // release builds. It allocates nothing, so debug builds keep an
        // allocation-free clock edge too.
        if !cfg!(debug_assertions) {
            return;
        }
        let is_full = |t: &usize| self.state[*t] == EbState::Full;
        let full_count = (0..self.threads).filter(is_full).count();
        debug_assert!(
            full_count <= 1,
            "reduced MEB `{}`: {full_count} threads in FULL",
            self.name
        );
        match (&self.shared, (0..self.threads).find(is_full).as_ref()) {
            (Some((owner, _)), Some(full)) => debug_assert_eq!(
                owner, full,
                "reduced MEB `{}`: shared register owner disagrees with FULL thread",
                self.name
            ),
            (None, None) => {}
            (s, f) => debug_assert!(
                false,
                "reduced MEB `{}`: shared occupancy {:?} inconsistent with FULL set {f:?}",
                self.name,
                s.as_ref().map(|(t, _)| t)
            ),
        }
        for t in 0..self.threads {
            debug_assert_eq!(
                self.state[t] != EbState::Empty,
                self.main[t].is_some(),
                "reduced MEB `{}`: thread {t} state/main mismatch",
                self.name
            );
            debug_assert_eq!(
                self.has.get(t),
                self.state[t] != EbState::Empty,
                "reduced MEB `{}`: thread {t} occupancy mask out of sync",
                self.name
            );
        }
    }
}

impl<T: Token> Component<T> for ReducedMeb<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::MebReduced
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Ready is a function of registered FSM/shared-register state; the
        // arbiter's ready-aware selection is the only combinational input,
        // damped by the anti-swap guard.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    /// Word-level evaluation. Upstream `ready` depends only on registered
    /// state (the replicated EB FSMs and the shared-register owner), so it
    /// is derived in O(words) from the incrementally maintained occupancy
    /// mask once per cycle and committed with a single word-level
    /// [`EvalCtx::set_ready_mask`] — no per-thread FSM scan at all.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let (has, shared_free) = (&self.has, self.shared.is_none());
        self.cache
            .commit(ctx, self.inp, self.arbiter.as_ref(), |ready| {
                // With the shared register free no thread is FULL (the
                // structural invariant), so EMPTY and HALF are both
                // ready: all ones. With it occupied only EMPTY threads
                // are ready: ¬has.
                if shared_free {
                    ready.fill();
                } else {
                    ready.assign_not(has);
                }
            });
        // The head is always the main register.
        let main = &self.main;
        self.select.offer(
            ctx,
            self.out,
            self.arbiter.as_ref(),
            &self.has,
            self.cache.hint(),
            |t| main[t].as_ref().expect("non-empty thread has a head"),
        );
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        let mut refilled_shared_this_cycle = false;

        // Dequeue first.
        if let Some(g) = self.select.on_tick(ctx, self.out) {
            match self.state[g] {
                EbState::Half => {
                    self.main[g] = None;
                    self.state[g] = EbState::Empty;
                    self.has.set(g, false);
                }
                EbState::Full => {
                    // Refill the main register from the shared buffer; its
                    // availability appears upstream only next cycle (ready
                    // was computed from the pre-edge state).
                    let (owner, item) = self.shared.take().expect("FULL thread owns shared");
                    debug_assert_eq!(owner, g, "shared owner must be the dequeued FULL thread");
                    self.main[g] = Some(item);
                    self.state[g] = EbState::Half;
                    refilled_shared_this_cycle = true;
                }
                EbState::Empty => unreachable!("dequeue from EMPTY thread"),
            }
            self.arbiter.commit(g);
        }

        // Then enqueue (the input channel carries at most one thread).
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            match self.state[t] {
                EbState::Empty => {
                    self.main[t] = Some(data.clone());
                    self.state[t] = EbState::Half;
                    self.has.set(t, true);
                }
                EbState::Half => {
                    // goFull: claim the shared register. The elastic thread
                    // control guaranteed it was free when ready was granted,
                    // and a same-cycle refill cannot coincide (the refilling
                    // thread was FULL, hence not ready).
                    debug_assert!(
                        !refilled_shared_this_cycle,
                        "shared register cannot be refilled and re-written in one cycle"
                    );
                    debug_assert!(
                        self.shared.is_none(),
                        "goFull with occupied shared register"
                    );
                    self.shared = Some((t, data.clone()));
                    self.state[t] = EbState::Full;
                }
                EbState::Full => unreachable!("enqueue into FULL thread (ready was low)"),
            }
        }

        self.check_invariants();
    }

    fn slots(&self) -> Vec<SlotView> {
        let mut out = Vec::with_capacity(self.threads + 1);
        for t in 0..self.threads {
            out.push(match &self.main[t] {
                Some(d) => SlotView::full(format!("main[{t}]"), t, d.label()),
                None => SlotView::empty(format!("main[{t}]")),
            });
        }
        out.push(match &self.shared {
            Some((t, d)) => SlotView::full("shared", *t, d.label()),
            None => SlotView::empty("shared"),
        });
        out
    }

    fn reset(&mut self) -> bool {
        self.state.iter_mut().for_each(|s| *s = EbState::Empty);
        self.main.iter_mut().for_each(|s| *s = None);
        self.shared = None;
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
    use crate::arbiter::ArbiterKind;
    use elastic_sim::{Circuit, CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    fn two_thread_meb(
        n0: u64,
        n1: u64,
        sink0: ReadyPolicy,
        sink1: ReadyPolicy,
    ) -> (
        Circuit<Tagged>,
        elastic_sim::ChannelId,
        elastic_sim::ChannelId,
    ) {
        let mut b = CircuitBuilder::<Tagged>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        src.extend(0, (0..n0).map(|i| Tagged::new(0, i, i)));
        src.extend(1, (0..n1).map(|i| Tagged::new(1, i, i)));
        b.add(src);
        b.add(ReducedMeb::new(
            "meb",
            a,
            c,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        let mut sink = Sink::with_capture("snk", c, 2, sink0);
        sink.set_policy(1, sink1);
        b.add(sink);
        (b.build().expect("valid"), a, c)
    }

    #[test]
    fn single_thread_reduced_meb_is_a_two_slot_eb() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..10u64);
        b.add(src);
        b.add(ReducedMeb::new(
            "meb",
            a,
            c,
            1,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Sink::new("snk", c, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        // S=1 ⇒ capacity S+1 = 2, identical to the baseline EB.
        assert_eq!(circuit.stats().total_transfers(a), 2);
        let meb: &ReducedMeb<u64> = circuit.get("meb").expect("meb");
        assert_eq!(meb.occupancy_total(), 2);
        assert_eq!(meb.thread_state(0), EbState::Full);
        assert_eq!(meb.shared_owner(), Some(0));
    }

    #[test]
    fn lone_active_thread_gets_full_throughput() {
        // M = 1 with no other thread blocked: 100 % throughput (Sec. III-A).
        let (mut circuit, _a, c) = two_thread_meb(40, 0, ReadyPolicy::Always, ReadyPolicy::Always);
        circuit.run(45).expect("clean");
        let thr = circuit.stats().throughput(c, 0);
        assert!(thr > 0.85, "lone thread throughput {thr} too low");
    }

    #[test]
    fn two_active_threads_each_get_half() {
        let (mut circuit, _a, c) = two_thread_meb(50, 50, ReadyPolicy::Always, ReadyPolicy::Always);
        circuit.run(40).expect("clean");
        let thr0 = circuit.stats().throughput(c, 0);
        let thr1 = circuit.stats().throughput(c, 1);
        assert!((thr0 - 0.5).abs() < 0.08, "thr0 = {thr0}");
        assert!((thr1 - 0.5).abs() < 0.08, "thr1 = {thr1}");
    }

    #[test]
    fn only_one_thread_may_go_full() {
        // Both sinks blocked: the first stalled thread claims the shared
        // slot (FULL); the other saturates at HALF. Total storage S+1 = 3.
        let (mut circuit, a, _c) = two_thread_meb(10, 10, ReadyPolicy::Never, ReadyPolicy::Never);
        circuit.run(20).expect("clean");
        assert_eq!(circuit.stats().total_transfers(a), 3, "S+1 items accepted");
        let meb: &ReducedMeb<Tagged> = circuit.get("meb").expect("meb");
        let fulls = (0..2)
            .filter(|&t| meb.thread_state(t) == EbState::Full)
            .count();
        assert_eq!(fulls, 1, "exactly one FULL thread");
        assert_eq!(meb.occupancy_total(), 3);
        assert!(meb.shared_owner().is_some());
    }

    #[test]
    fn blocked_thread_releases_shared_slot_on_drain() {
        // Block thread 0 until cycle 12, then release; afterwards both
        // threads flow and the shared register empties.
        let (mut circuit, _a, c) = two_thread_meb(
            10,
            10,
            ReadyPolicy::StallWindow { from: 0, to: 12 },
            ReadyPolicy::Always,
        );
        circuit.run(60).expect("clean");
        let snk_total = circuit.stats().total_transfers(c);
        assert_eq!(snk_total, 20, "all tokens eventually delivered");
        let meb: &ReducedMeb<Tagged> = circuit.get("meb").expect("meb");
        assert_eq!(meb.occupancy_total(), 0);
        assert_eq!(meb.shared_owner(), None);
    }

    #[test]
    fn per_thread_order_preserved_under_contention() {
        let (mut circuit, _a, c) = two_thread_meb(
            30,
            30,
            ReadyPolicy::Random { p: 0.5, seed: 11 },
            ReadyPolicy::Random { p: 0.3, seed: 23 },
        );
        circuit.run(500).expect("clean");
        assert_eq!(circuit.stats().total_transfers(c), 60);
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        for t in 0..2 {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            assert_eq!(seqs, (0..30).collect::<Vec<_>>(), "thread {t} out of order");
        }
    }

    #[test]
    fn slots_render_main_and_shared() {
        let (mut circuit, _a, _c) = two_thread_meb(5, 5, ReadyPolicy::Never, ReadyPolicy::Never);
        circuit.run(10).expect("clean");
        let meb: &ReducedMeb<Tagged> = circuit.get("meb").expect("meb");
        let slots = meb.slots();
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].name, "main[0]");
        assert_eq!(slots[2].name, "shared");
        assert!(
            slots[2].occupant.is_some(),
            "shared slot claimed under stall"
        );
    }

    #[test]
    fn capacity_is_threads_plus_one() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 8);
        let c = b.channel("c", 8);
        let meb = ReducedMeb::<u64>::new("m", a, c, 8, ArbiterKind::Fixed.build());
        assert_eq!(meb.capacity(), 9);
    }
}
