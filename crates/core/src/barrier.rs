//! Thread barrier synchronization (paper, Sec. IV-C and Fig. 8).
//!
//! The barrier "forces the threads that participate in a multithreaded
//! elastic system to wait until each one of them has reached a certain
//! phase of the algorithm's execution". It is a control-only module on a
//! multithreaded channel: an arriving token is *not* consumed — it waits
//! upstream (in the feeding MEB) until the barrier opens.
//!
//! Per-thread FSM (Fig. 8): **IDLE** → (valid data arrives: load the local
//! go flag `lgo(i) := go`, increment the counter) → **WAIT** →
//! (`lgo(i) != go`, i.e. the global flag flipped because the counter
//! reached N) → **FREE** → (selected by the downstream arbiter, the token
//! passes) → IDLE. When the counter reaches N it resets and the global
//! `go` flag flips — the sense-reversing barrier of Andrews' textbook,
//! realized in elastic handshake logic.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, Ports, SlotView, ThreadMask,
    TickCtx, Token,
};

/// Per-thread barrier FSM state (paper, Fig. 8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BarrierState {
    /// No valid data has reached the barrier in this phase.
    #[default]
    Idle,
    /// Arrived; waiting for the remaining threads.
    Wait,
    /// Barrier open; the thread may proceed when selected downstream.
    Free,
}

/// A sense-reversing elastic thread barrier.
///
/// Non-participating threads (see [`Barrier::with_participants`]) pass
/// through unaffected.
///
/// # Examples
///
/// ```
/// use elastic_core::Barrier;
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<Tagged>::new();
/// let x = b.channel("x", 2);
/// let y = b.channel("y", 2);
/// let mut src = Source::new("src", x, 2);
/// src.push(0, Tagged::new(0, 0, 0));
/// src.push_at(1, 6, Tagged::new(1, 0, 0)); // thread 1 arrives late
/// b.add(src);
/// b.add(Barrier::new("bar", x, y, 2));
/// b.add(Sink::with_capture("snk", y, 2, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(12)?;
/// let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
/// // Thread 0 was NOT allowed through before thread 1 arrived.
/// assert!(snk.captured(0)[0].0 >= 6);
/// # Ok(())
/// # }
/// ```
pub struct Barrier<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    participant: Vec<bool>,
    state: Vec<BarrierState>,
    /// Bit `t` set iff thread `t` may pass: a non-participant, or a
    /// participant in FREE. Kept at the clock edge with the FSMs and
    /// rebuilt by `reset` and `with_participants`, so `eval` gates both
    /// handshake words with it in one pass each.
    open: ThreadMask,
    lgo: Vec<bool>,
    go: bool,
    count: usize,
    /// Number of phases completed (barrier openings) — handy for tests
    /// and round counters.
    releases: u64,
    /// Invoked at the clock edge of every release (counter full → `go`
    /// flip). The paper's MD5 example uses this to advance the global
    /// round-configuration counter.
    on_release: Option<Box<dyn FnMut(u64) + Send>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Token> Barrier<T> {
    /// A barrier over all `threads` threads of the channel.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(name: impl Into<String>, inp: ChannelId, out: ChannelId, threads: usize) -> Self {
        assert!(threads > 0, "a barrier needs at least one thread");
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            participant: vec![true; threads],
            state: vec![BarrierState::Idle; threads],
            open: ThreadMask::new(threads),
            lgo: vec![false; threads],
            go: false,
            count: 0,
            releases: 0,
            on_release: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers an action to run at the clock edge of every barrier
    /// release; it receives the 1-based release count. The MD5 circuit
    /// (paper, Sec. V-A) uses this to increment the global round counter
    /// when "the data flow is released".
    #[must_use]
    pub fn with_release_action(mut self, f: impl FnMut(u64) + Send + 'static) -> Self {
        self.on_release = Some(Box::new(f));
        self
    }

    /// Restricts participation to the threads whose mask entry is `true`;
    /// other threads pass through the barrier unimpeded.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the thread count or if no
    /// thread participates.
    #[must_use]
    pub fn with_participants(mut self, mask: Vec<bool>) -> Self {
        assert_eq!(mask.len(), self.threads, "participant mask length mismatch");
        assert!(
            mask.iter().any(|&p| p),
            "a barrier needs at least one participant"
        );
        self.participant = mask;
        self.reset_open();
        self
    }

    /// Current FSM state of `thread`.
    pub fn thread_state(&self, thread: usize) -> BarrierState {
        self.state[thread]
    }

    /// Threads that have arrived in the current phase.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The global sense-reversing flag.
    pub fn go(&self) -> bool {
        self.go
    }

    /// Number of times the barrier has opened.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    fn participants_total(&self) -> usize {
        self.participant.iter().filter(|&&p| p).count()
    }

    /// The `open` word of a barrier whose participants are all IDLE: the
    /// non-participants.
    fn reset_open(&mut self) {
        for (t, &p) in self.participant.iter().enumerate() {
            self.open.set(t, !p);
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: derives each thread's gate from its FSM state and
    /// drives `valid`/`ready` bit by bit. Kept so tests can run a circuit
    /// with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        for t in 0..self.threads {
            let open = !self.participant[t] || self.state[t] == BarrierState::Free;
            let vin = ctx.valid(self.inp, t);
            ctx.set_valid(self.out, t, vin && open);
            ctx.set_ready(self.inp, t, open && ctx.ready(self.out, t));
        }
        let data = ctx.data(self.inp).cloned();
        ctx.set_data(self.out, data);
    }
}

impl<T: Token> Component<T> for Barrier<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Barrier
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Gated pass-through: valid forwards when the (registered) FSM is
        // open, ready flows back likewise. The gate itself is registered
        // state, so only the through paths are combinational.
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

    /// Word-level evaluation: `valid(out) = valid(in) ∧ open` and
    /// `ready(in) = ready(out) ∧ open`, one gated word commit each, and
    /// the data word forwarded without a clone when it is unchanged.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        ctx.forward_valid(self.inp, self.out, Some(&self.open));
        ctx.forward_ready(self.out, self.inp, Some(&self.open));
        ctx.forward_data(self.inp, self.out);
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        let old_go = self.go;

        // WAIT → FREE: the flag flipped in an earlier cycle.
        for t in 0..self.threads {
            if self.state[t] == BarrierState::Wait && self.lgo[t] != old_go {
                self.state[t] = BarrierState::Free;
                self.open.set(t, true);
            }
        }

        // FREE → IDLE: the token passed downstream this cycle.
        if let Some((t, _)) = ctx.fired_any(self.out) {
            if self.participant[t] {
                debug_assert_eq!(
                    self.state[t],
                    BarrierState::Free,
                    "barrier `{}`: a participating token passed while not FREE",
                    self.name
                );
                self.state[t] = BarrierState::Idle;
                self.open.set(t, false);
            }
        }

        // IDLE → WAIT: a new (unconsumed) token reached the barrier. The
        // kernel has checked the one-valid-thread invariant before the
        // edge, so only the offered thread can arrive.
        if let Some(t) = ctx.valid_mask(self.inp).first_one() {
            let arriving = !ctx.fired(self.inp, t)
                && self.participant[t]
                && self.state[t] == BarrierState::Idle;
            if arriving {
                self.state[t] = BarrierState::Wait;
                self.lgo[t] = old_go;
                self.count += 1;
            }
        }

        // Counter full: reset and flip the global flag.
        if self.count == self.participants_total() && self.count > 0 {
            self.count = 0;
            self.go = !self.go;
            self.releases += 1;
            if let Some(f) = &mut self.on_release {
                f(self.releases);
            }
        }
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.threads)
            .map(|t| {
                let label = match self.state[t] {
                    BarrierState::Idle => None,
                    BarrierState::Wait => Some("wait"),
                    BarrierState::Free => Some("free"),
                };
                match label {
                    Some(l) => SlotView::full(format!("fsm[{t}]"), t, l),
                    None => SlotView::empty(format!("fsm[{t}]")),
                }
            })
            .collect()
    }

    fn reset(&mut self) -> bool {
        // Participation and the release callback are configuration; the
        // per-thread FSMs and release history rewind.
        self.state.iter_mut().for_each(|s| *s = BarrierState::Idle);
        self.reset_open();
        self.lgo.iter_mut().for_each(|b| *b = false);
        self.go = false;
        self.count = 0;
        self.releases = 0;
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::meb::ReducedMeb;
    use elastic_sim::{Circuit, CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    /// Builds src → MEB → barrier → sink over `threads` threads.
    fn barrier_fixture(
        threads: usize,
        arrivals: &[(usize, u64)],
    ) -> (Circuit<Tagged>, elastic_sim::ChannelId) {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x = b.channel("x", threads);
        let m = b.channel("m", threads);
        let y = b.channel("y", threads);
        let mut src = Source::new("src", x, threads);
        let mut seq = vec![0u64; threads];
        for &(t, cycle) in arrivals {
            src.push_at(t, cycle, Tagged::new(t, seq[t], cycle));
            seq[t] += 1;
        }
        b.add(src);
        b.add(ReducedMeb::new(
            "meb",
            x,
            m,
            threads,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Barrier::new("bar", m, y, threads));
        b.add(Sink::with_capture("snk", y, threads, ReadyPolicy::Always));
        (b.build().expect("valid"), y)
    }

    #[test]
    fn nobody_passes_until_all_arrive() {
        let (mut circuit, y) = barrier_fixture(3, &[(0, 0), (1, 4), (2, 12)]);
        circuit.run(11).expect("clean");
        assert_eq!(
            circuit.stats().total_transfers(y),
            0,
            "barrier still closed"
        );
        circuit.run(20).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y), 3, "all released");
    }

    #[test]
    fn all_released_together_after_last_arrival() {
        let (mut circuit, _y) = barrier_fixture(3, &[(0, 0), (1, 2), (2, 8)]);
        circuit.run(40).expect("clean");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        let cycles: Vec<u64> = (0..3).map(|t| snk.captured(t)[0].0).collect();
        let last_arrival = 8;
        for (t, &c) in cycles.iter().enumerate() {
            assert!(
                c > last_arrival,
                "thread {t} released at {c}, before the last arrival"
            );
        }
        // Release is tight: all three pass within a few cycles of each
        // other (serialized on one channel).
        let spread = cycles.iter().max().unwrap() - cycles.iter().min().unwrap();
        assert!(spread <= 3, "release spread {spread} too wide: {cycles:?}");
    }

    #[test]
    fn barrier_reopens_for_successive_phases() {
        // Every thread passes the barrier three times (three phases).
        let arrivals: Vec<(usize, u64)> = (0..3)
            .flat_map(|phase| (0..2).map(move |t| (t, 10 * phase)))
            .collect();
        let (mut circuit, y) = barrier_fixture(2, &arrivals);
        circuit.run(80).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y), 6);
        let bar: &Barrier<Tagged> = circuit
            .component("bar")
            .and_then(|_| circuit.get("bar"))
            .expect("barrier");
        assert_eq!(bar.releases(), 3);
        assert_eq!(bar.count(), 0);
        for t in 0..2 {
            assert_eq!(bar.thread_state(t), BarrierState::Idle);
        }
    }

    #[test]
    fn non_participants_pass_freely() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x = b.channel("x", 2);
        let y = b.channel("y", 2);
        let mut src = Source::new("src", x, 2);
        // Thread 1 participates alone (so it self-releases); thread 0
        // bypasses entirely.
        src.extend(0, (0..5).map(|i| Tagged::new(0, i, i)));
        b.add(src);
        b.add(Barrier::new("bar", x, y, 2).with_participants(vec![false, true]));
        b.add(Sink::with_capture("snk", y, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 5, "bypass thread flows unimpeded");
    }

    #[test]
    fn single_participant_barrier_self_releases() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x = b.channel("x", 1);
        let y = b.channel("y", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, (0..4).map(|i| Tagged::new(0, i, i)));
        b.add(src);
        b.add(Barrier::new("bar", x, y, 1));
        b.add(Sink::with_capture("snk", y, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(20));
        circuit.run(40).expect("no deadlock");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 4);
    }

    #[test]
    fn missing_thread_blocks_the_barrier_forever() {
        let (mut circuit, y) = barrier_fixture(2, &[(0, 0)]);
        circuit.run(50).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y), 0);
        let bar: &Barrier<Tagged> = circuit.get("bar").expect("barrier");
        assert_eq!(bar.thread_state(0), BarrierState::Wait);
        assert_eq!(bar.thread_state(1), BarrierState::Idle);
        assert_eq!(bar.count(), 1);
    }
}
