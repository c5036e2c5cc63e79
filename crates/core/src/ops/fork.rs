//! Fork: replication of one channel to several consumers (paper, Fig. 3
//! and Fig. 7(b)).
//!
//! The fork is **eager**: each output takes the token as soon as it is
//! ready; a per-(output, thread) `done` bit remembers partial delivery
//! and the input is consumed once every output has been served. Eager
//! forks decouple slow consumers and avoid throughput loss.
//!
//! The multithreaded M-Fork is the per-thread replication of the baseline
//! fork; the `done` state is therefore indexed by thread as well.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports,
    ProtocolError, ThreadMask, TickCtx, Token,
};

/// Per-token output-routing function (see [`Fork::with_route`]): bit `o`
/// of the returned mask selects output `o`.
type RouteFn<T> = Box<dyn Fn(&T) -> u64 + Send>;

/// A 1-to-N eager fork.
///
/// # Examples
///
/// ```
/// use elastic_core::Fork;
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let x = b.channel("x", 1);
/// let y0 = b.channel("y0", 1);
/// let y1 = b.channel("y1", 1);
/// let mut src = Source::new("src", x, 1);
/// src.extend(0, [5, 6]);
/// b.add(src);
/// b.add(Fork::new("f", x, vec![y0, y1], 1));
/// b.add(Sink::with_capture("s0", y0, 1, ReadyPolicy::Always));
/// b.add(Sink::with_capture("s1", y1, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(5)?;
/// let s0: &Sink<u64> = circuit.get("s0").expect("sink");
/// assert_eq!(s0.consumed_total(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Fork<T: Token> {
    name: String,
    inp: ChannelId,
    outputs: Vec<ChannelId>,
    threads: usize,
    /// `done[o]` bit `t`: output `o` has already received thread `t`'s
    /// current token.
    done: Vec<ThreadMask>,
    /// Optional per-token routing: outputs whose mask bit is clear do not
    /// receive the token (they are treated as already done).
    route: Option<RouteFn<T>>,
    /// The invalid route mask returned for the token offered at the last
    /// evaluation, latched as a fault at the clock edge.
    bad_route: Option<u64>,
    /// Scratch words of the word-level evaluation.
    word: ThreadMask,
    ready: ThreadMask,
}

/// How the offered token is routed, as seen by one evaluation.
#[derive(Clone, Copy)]
enum Routing {
    /// No route function, or no token offered: every output.
    All,
    /// The route function's mask (bit `o` = output `o`).
    Mask(u64),
    /// The route function returned an invalid mask: the token goes
    /// nowhere and is never consumed.
    Invalid(u64),
}

impl Routing {
    fn routed(self, o: usize) -> bool {
        match self {
            Routing::All => true,
            Routing::Mask(m) => m >> o & 1 != 0,
            Routing::Invalid(_) => false,
        }
    }
}

impl<T: Token> Fork<T> {
    /// A fork from `inp` to `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two outputs are given.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        outputs: Vec<ChannelId>,
        threads: usize,
    ) -> Self {
        assert!(outputs.len() >= 2, "a fork needs at least two outputs");
        let n = outputs.len();
        Self {
            name: name.into(),
            inp,
            outputs,
            threads,
            done: vec![ThreadMask::new(threads); n],
            route: None,
            bad_route: None,
            word: ThreadMask::new(threads),
            ready: ThreadMask::new(threads),
        }
    }

    /// Makes the fork *routing*: `f` returns, per token, the bitmask of
    /// outputs that receive it (bit `o` = output `o`). A token routed to
    /// a single output behaves like a demultiplexed branch; a token
    /// routed to several outputs is replicated to exactly those.
    ///
    /// A mask that selects no output, or sets a bit at or above the
    /// output count, leaves the token unconsumed and latches
    /// [`ProtocolError::InvalidRoute`], which the next clock edge reports
    /// as [`SimError::Component`](elastic_sim::SimError::Component).
    ///
    /// # Panics
    ///
    /// Panics if the fork has more than 64 outputs (the mask width).
    #[must_use]
    pub fn with_route(mut self, f: impl Fn(&T) -> u64 + Send + 'static) -> Self {
        assert!(
            self.outputs.len() <= 64,
            "a routing fork has at most 64 outputs"
        );
        self.route = Some(Box::new(f));
        self
    }

    /// Routing of the currently offered token (`data` on the input).
    fn routing(&self, data: Option<&T>) -> Routing {
        let (Some(route), Some(token)) = (&self.route, data) else {
            return Routing::All;
        };
        let mask = route(token);
        let n = self.outputs.len();
        let outside = if n >= 64 { 0 } else { !0u64 << n };
        if mask == 0 || mask & outside != 0 {
            Routing::Invalid(mask)
        } else {
            Routing::Mask(mask)
        }
    }

    fn note_routing(&mut self, routing: Routing) {
        self.bad_route = match routing {
            Routing::Invalid(mask) => Some(mask),
            _ => None,
        };
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives every `(output, thread)` valid bit and
    /// every thread's ready bit one at a time. Kept so tests can run a
    /// circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let data = ctx.data(self.inp).cloned();
        let routing = self.routing(data.as_ref());
        self.note_routing(routing);
        let offered = ctx.valid_mask(self.inp).first_one();
        for t in 0..self.threads {
            let vin = ctx.valid(self.inp, t);
            for (o, &out) in self.outputs.iter().enumerate() {
                ctx.set_valid(out, t, vin && routing.routed(o) && !self.done[o].get(t));
            }
            // Input consumed once every (routed) output is done or
            // accepting. The mask belongs to the *offered* token; for any
            // other thread the data bus does not hold its token, so answer
            // conservatively as if it routed to every output — a
            // conservative ready can only be upgraded once the thread is
            // offered, which keeps the upstream selection from chasing a
            // false ready. An invalid route is never consumed.
            let use_mask = offered == Some(t);
            let all_served = !(use_mask && matches!(routing, Routing::Invalid(_)))
                && (0..self.outputs.len()).all(|o| {
                    (use_mask && !routing.routed(o))
                        || self.done[o].get(t)
                        || ctx.ready(self.outputs[o], t)
                });
            ctx.set_ready(self.inp, t, all_served);
        }
        for &out in &self.outputs {
            ctx.set_data(out, data.clone());
        }
    }
}

impl<T: Token> Component<T> for Fork<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Fork
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], self.outputs.clone())
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // valid(out_o) = valid(inp) ∧ ¬done; ready(inp) reads the offered
        // thread (valid(inp) itself, for routing) plus every output's
        // ready.
        let mut paths = Vec::new();
        for &out in &self.outputs {
            paths.push(CombPath::ValidToValid {
                from: self.inp,
                to: out,
            });
            paths.push(CombPath::ReadyToReady {
                from: out,
                to: self.inp,
            });
        }
        paths.push(CombPath::ValidToReady {
            from: self.inp,
            to: self.inp,
        });
        paths
    }

    /// Word-level: each output's `valid` word is `valid(in) ∧ ¬done[o]`
    /// when the offered token routes to it (zero otherwise), and
    /// `ready(in)` is the AND over outputs of `done[o] ∨ ready(out_o)`,
    /// with the offered thread's bit recomputed against its token's
    /// route. Each word is committed in one masked write, and the input
    /// token is forwarded to every output with
    /// [`EvalCtx::forward_data`], which compares before it clones.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let routing = self.routing(ctx.data(self.inp));
        self.note_routing(routing);
        self.ready.fill();
        for (o, &out) in self.outputs.iter().enumerate() {
            if routing.routed(o) {
                self.word.assign_not(&self.done[o]);
                self.word.and_with(ctx.valid_mask(self.inp));
            } else {
                self.word.clear();
            }
            ctx.set_valid_mask(out, &self.word);
            self.word.copy_from(&self.done[o]);
            self.word.or_with(ctx.ready_mask(out));
            self.ready.and_with(&self.word);
        }
        // The conservative word above assumes every output is routed; the
        // offered thread's own token may skip some of them.
        if !matches!(routing, Routing::All) {
            if let Some(t) = ctx.valid_mask(self.inp).first_one() {
                let served = !matches!(routing, Routing::Invalid(_))
                    && (0..self.outputs.len()).all(|o| {
                        !routing.routed(o) || self.done[o].get(t) || ctx.ready(self.outputs[o], t)
                    });
                self.ready.set(t, served);
            }
        }
        ctx.set_ready_mask(self.inp, &self.ready);
        for &out in &self.outputs {
            ctx.forward_data(self.inp, out);
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        // The kernel has checked the one-valid-thread invariant before
        // the clock edge, so only the offered thread can change state.
        let Some(t) = ctx.valid_mask(self.inp).first_one() else {
            return;
        };
        if let Some(mask) = self.bad_route {
            ctx.fault(ProtocolError::InvalidRoute {
                mask,
                outputs: self.outputs.len(),
            });
        }
        if ctx.fired(self.inp, t) {
            // Token fully delivered: clear this thread's done bits.
            for d in &mut self.done {
                d.set(t, false);
            }
        } else {
            // Partial delivery: latch which outputs took it.
            for (o, &out) in self.outputs.iter().enumerate() {
                if ctx.fired(out, t) {
                    self.done[o].set(t, true);
                }
            }
        }
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    fn reset(&mut self) -> bool {
        for d in &mut self.done {
            d.clear();
        }
        self.bad_route = None;
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eb::ElasticBuffer;
    use elastic_sim::{Circuit, CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    fn fork_fixture(p0: ReadyPolicy, p1: ReadyPolicy) -> Circuit<u64> {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..10u64);
        b.add(src);
        b.add(Fork::new("f", x, vec![y0, y1], 1));
        b.add(Sink::with_capture("s0", y0, 1, p0));
        b.add(Sink::with_capture("s1", y1, 1, p1));
        b.build().expect("valid")
    }

    #[test]
    fn eager_fork_lets_fast_branch_run_ahead_by_one_token() {
        let mut c = fork_fixture(ReadyPolicy::Always, ReadyPolicy::Never);
        c.run(10).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        // The fast branch received the head token; the input then waits
        // for the blocked branch (done bit set, no duplication).
        assert_eq!(s0.consumed(0), 1);
        assert_eq!(s1.consumed(0), 0);
    }

    #[test]
    fn eager_fork_never_duplicates_or_reorders() {
        let mut c = fork_fixture(
            ReadyPolicy::Random { p: 0.5, seed: 1 },
            ReadyPolicy::Random { p: 0.3, seed: 2 },
        );
        c.run(200).expect("clean");
        for s in ["s0", "s1"] {
            let snk: &Sink<u64> = c.get(s).expect("sink");
            let vals: Vec<u64> = snk.captured(0).iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, (0..10u64).collect::<Vec<_>>(), "{s} stream corrupted");
        }
    }

    /// M-Fork: per-thread done bits mean a stalled thread on one branch
    /// does not corrupt another thread's delivery.
    #[test]
    fn mfork_tracks_done_bits_per_thread() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x0 = b.channel("x0", 2);
        let x1 = b.channel("x1", 2);
        let y0 = b.channel("y0", 2);
        let y1 = b.channel("y1", 2);
        let mut src = Source::new("src", x0, 2);
        for t in 0..2 {
            src.extend(t, (0..6).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add(crate::meb::ReducedMeb::new(
            "meb",
            x0,
            x1,
            2,
            crate::arbiter::ArbiterKind::RoundRobin.build(),
        ));
        b.add(Fork::new("f", x1, vec![y0, y1], 2));
        // Branch y1 blocks thread 0 for a while; thread 1 must keep moving
        // on both branches.
        let mut s1 = Sink::with_capture("s1", y1, 2, ReadyPolicy::Always);
        s1.set_policy(0, ReadyPolicy::StallWindow { from: 0, to: 20 });
        b.add(Sink::with_capture("s0", y0, 2, ReadyPolicy::Always));
        b.add(s1);
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(60));
        circuit.run(100).expect("clean");
        for s in ["s0", "s1"] {
            let snk: &Sink<Tagged> = circuit.get(s).expect("sink");
            for t in 0..2 {
                let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
                assert_eq!(seqs, (0..6).collect::<Vec<_>>(), "{s} thread {t}");
            }
        }
    }

    /// A routing fork sends each token to exactly the outputs its mask
    /// selects — and to several when the mask says so.
    #[test]
    fn routing_fork_demultiplexes_and_replicates() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..9u64);
        b.add(src);
        // Multiples of 3 go to both outputs, even → y0, odd → y1.
        b.add(Fork::new("f", x, vec![y0, y1], 1).with_route(|v: &u64| {
            if v.is_multiple_of(3) {
                0b11
            } else if v.is_multiple_of(2) {
                0b01
            } else {
                0b10
            }
        }));
        b.add(Sink::with_capture("s0", y0, 1, ReadyPolicy::Always));
        b.add(Sink::with_capture("s1", y1, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");
        c.run(20).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        let v0: Vec<u64> = s0.captured(0).iter().map(|&(_, v)| v).collect();
        let v1: Vec<u64> = s1.captured(0).iter().map(|&(_, v)| v).collect();
        assert_eq!(v0, vec![0, 2, 3, 4, 6, 8]);
        assert_eq!(v1, vec![0, 1, 3, 5, 6, 7]);
    }

    /// A fork inside an EB-bounded stage sustains full throughput when
    /// both branches are free-flowing.
    #[test]
    fn eager_fork_full_throughput_between_ebs() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..50u64);
        b.add(src);
        b.add(ElasticBuffer::new("eb", a, x));
        b.add(Fork::new("f", x, vec![y0, y1], 1));
        b.add(Sink::new("s0", y0, 1, ReadyPolicy::Always));
        b.add(Sink::new("s1", y1, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(56).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y0), 50);
        assert_eq!(circuit.stats().total_transfers(y1), 50);
    }
}
