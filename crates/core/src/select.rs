//! Output-thread selection shared by MEBs, merges and other modules that
//! drive a multithreaded channel.
//!
//! # The selection rule
//!
//! Given the set of threads that *have data* to offer, the driver must
//! assert exactly one `valid(i)`. The paper's arbiter "takes into account
//! which threads are ready downstream"; in a network with M-Joins the
//! downstream `ready(i)` is itself a combinational function of *other*
//! channels' `valid` bits, so a naive choice can oscillate during the
//! settle phase (two buffers feeding a join endlessly swapping offers).
//!
//! [`select_output_thread`] therefore applies two rules, in order:
//!
//! 1. **Ready-first** — ask the arbiter to pick among threads with data
//!    *and* downstream ready. Because the settle loop re-evaluates
//!    components in sequence (Gauss–Seidel style) and the arbiter's choice
//!    is deterministic within a cycle, a mutually-ready pairing locks in
//!    as soon as it appears.
//! 2. **Stalled offer** — otherwise offer the first thread with data at or
//!    after a *stall pointer* that the caller rotates every cycle in which
//!    the offer did not fire (`valid` without `ready` is legal — the offer
//!    simply stalls, and rotation guarantees every waiting thread is
//!    eventually presented, which modules like the [`Barrier`] rely on to
//!    observe arrivals).
//!
//! [`Barrier`]: crate::Barrier

use elastic_sim::{ChannelId, EvalCtx, ThreadMask, TickCtx, Token};

use crate::arbiter::Arbiter;

/// Chooses which thread should drive `out` this settle iteration.
///
/// `has_data.get(t)` must be true iff thread `t` has a token available at
/// the module's head, and `ready_requests` must be `has_data ∩ ready(out)`
/// — callers keep it in a persistent scratch mask (see
/// [`SelectState::select`]) so no per-evaluation allocation happens.
/// `stall_start` is the rotating start index for stalled offers (see
/// [`SelectState::on_tick`]). Returns `None` when no thread has data.
///
/// The caller is responsible for calling [`Arbiter::commit`] at the clock
/// edge if (and only if) the selected transfer fired.
pub fn select_output_thread<T: Token>(
    ctx: &EvalCtx<'_, T>,
    out: ChannelId,
    arbiter: &dyn Arbiter,
    has_data: &ThreadMask,
    ready_requests: &ThreadMask,
    stall_start: usize,
) -> Option<usize> {
    let threads = has_data.threads();
    debug_assert_eq!(threads, ctx.threads(out));
    debug_assert_eq!(ready_requests.threads(), threads);

    if ready_requests.any() {
        let pick = arbiter
            .choose(ready_requests)
            .expect("non-empty request set");
        // The anti-swap guard damps the pick on feedback channels.
        return Some(ctx.anti_swap(out, has_data, pick));
    }

    // No thread is ready: rotating stalled offer.
    has_data.next_one_wrapping(stall_start)
}

/// Stateful wrapper around [`select_output_thread`]: tracks the
/// stalled-offer rotation pointer.
///
/// Embed one per driven multithreaded output channel; call
/// [`select`](SelectState::select) from `eval` and
/// [`on_tick`](SelectState::on_tick) from `tick`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SelectState {
    stall: usize,
    /// Scratch for `has_data ∩ ready`, sized lazily on first use and
    /// reused every evaluation thereafter (zero steady-state allocation).
    requests: ThreadMask,
}

impl SelectState {
    /// Fresh state (stall pointer at thread 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Chooses the thread to drive `out` this settle iteration.
    pub fn select<T: Token>(
        &mut self,
        ctx: &EvalCtx<'_, T>,
        out: ChannelId,
        arbiter: &dyn Arbiter,
        has_data: &ThreadMask,
    ) -> Option<usize> {
        if self.requests.threads() != has_data.threads() {
            self.requests = ThreadMask::new(has_data.threads());
        }
        self.requests.copy_from(has_data);
        self.requests.and_with(ctx.ready_mask(out));
        select_output_thread(ctx, out, arbiter, has_data, &self.requests, self.stall)
    }

    /// [`select`](SelectState::select) for an arbiter whose
    /// [`Arbiter::rotation_hint`] is `hint` (queried once per cycle by the
    /// caller). On a DAG output channel the anti-swap damping is disabled
    /// anyway, so with a rotating arbiter the whole selection collapses to
    /// one word scan over `has_data ∩ ready(out)` from the hint
    /// (ready-first), with the stalled-offer rotation as fallback — no
    /// request-mask copy, no vtable call, bit-identical picks. Feedback
    /// channels and richer policies (`hint == None`) take the generic
    /// path.
    #[inline]
    pub fn select_with_hint<T: Token>(
        &mut self,
        ctx: &EvalCtx<'_, T>,
        out: ChannelId,
        arbiter: &dyn Arbiter,
        has_data: &ThreadMask,
        hint: Option<usize>,
    ) -> Option<usize> {
        match hint {
            Some(hint) if !ctx.in_feedback(out) => has_data
                .next_one_wrapping_and(ctx.ready_mask(out), hint)
                .or_else(|| has_data.next_one_wrapping(self.stall)),
            _ => self.select(ctx, out, arbiter, has_data),
        }
    }

    /// Picks with [`select_with_hint`](SelectState::select_with_hint)
    /// and drives `out`: the picked thread's head token, which `head_of`
    /// lends and which is cloned only when the offer changes, or idle.
    #[inline]
    pub fn offer<'h, T: Token>(
        &mut self,
        ctx: &mut EvalCtx<'_, T>,
        out: ChannelId,
        arbiter: &dyn Arbiter,
        has_data: &ThreadMask,
        hint: Option<usize>,
        head_of: impl FnOnce(usize) -> &'h T,
    ) {
        match self.select_with_hint(ctx, out, arbiter, has_data, hint) {
            Some(t) => ctx.drive_token_ref(out, t, head_of(t)),
            None => ctx.drive_idle(out),
        }
    }

    /// Clock-edge bookkeeping for `out`, reading its offer once: returns
    /// the thread whose transfer fired, if any. If the module offered a
    /// thread and the transfer did not fire, the next stalled offer
    /// starts one past the offered thread instead.
    ///
    /// Without this rotation a persistently stalled module would present
    /// the same thread forever (its arbiter state only advances on fired
    /// transfers), starving observers — e.g. a closed [`Barrier`] would
    /// never see the other threads arrive.
    ///
    /// [`Barrier`]: crate::Barrier
    #[inline]
    pub fn on_tick<T: Token>(&mut self, ctx: &TickCtx<'_, T>, out: ChannelId) -> Option<usize> {
        // The kernel has checked the MT channel invariant before the
        // edge: at most one thread is valid.
        let t = ctx.valid_mask(out).first_one()?;
        if ctx.ready(out, t) {
            Some(t)
        } else {
            // t < threads: wrap without a division.
            self.stall = if t + 1 < ctx.threads(out) { t + 1 } else { 0 };
            None
        }
    }

    /// Rewinds to the freshly constructed state (stall pointer at thread
    /// 0). The scratch request mask is kept — it is sized storage, not
    /// state.
    pub fn reset(&mut self) {
        self.stall = 0;
    }
}

/// The once-per-cycle half of a buffer's word-level `eval`: the upstream
/// `ready` word and the arbiter's rotation hint, for a buffer where both
/// depend only on registered state, which changes only at the clock edge.
/// The step's first evaluation ([`EvalCtx::first_eval`]) builds them and
/// commits the word; every settle re-evaluation of that step reuses them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReadyCache {
    /// The upstream ready word last committed.
    ready: ThreadMask,
    /// [`Arbiter::rotation_hint`] as of the current cycle.
    hint: Option<usize>,
}

impl ReadyCache {
    /// A cache for a `threads`-wide input.
    pub fn new(threads: usize) -> Self {
        Self {
            ready: ThreadMask::new(threads),
            hint: None,
        }
    }

    /// On the step's first evaluation: rebuilds the ready word with
    /// `build`, caches `arbiter`'s rotation hint and commits the word to
    /// `ready(inp)`. Later calls in the same step do nothing: the buffer
    /// is the only driver of `ready(inp)` and the word cannot have
    /// changed, so a re-commit would be a no-op under the word-level
    /// change test.
    #[inline]
    pub fn commit<T: Token>(
        &mut self,
        ctx: &mut EvalCtx<'_, T>,
        inp: ChannelId,
        arbiter: &dyn Arbiter,
        build: impl FnOnce(&mut ThreadMask),
    ) {
        if ctx.first_eval() {
            build(&mut self.ready);
            self.hint = arbiter.rotation_hint();
            ctx.set_ready_mask(inp, &self.ready);
        }
    }

    /// The rotation hint cached by this step's [`commit`](Self::commit).
    #[inline]
    pub fn hint(&self) -> Option<usize> {
        self.hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::RoundRobin;
    use elastic_sim::{impl_as_any, CircuitBuilder, Component, Ports, ReadyPolicy, Sink, TickCtx};

    /// A probe component that exposes what `select_output_thread` decides
    /// for a fixed `has_data` mask, against a scripted sink.
    struct Probe {
        out: ChannelId,
        has: ThreadMask,
        arb: RoundRobin,
        select: SelectState,
    }

    impl Probe {
        fn new(out: ChannelId, has: &[bool]) -> Self {
            Self {
                out,
                has: ThreadMask::from_bools(has),
                arb: RoundRobin::new(),
                select: SelectState::new(),
            }
        }
    }

    impl Component<u64> for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn ports(&self) -> Ports {
            Ports::new([], [self.out])
        }
        fn comb_paths(&self) -> Vec<elastic_sim::CombPath> {
            // Selection reads ready(out) to pick the offered thread; the
            // anti-swap guard damps it.
            vec![elastic_sim::CombPath::ReadyToValid {
                from: self.out,
                to: self.out,
                damped: true,
            }]
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            match self.select.select(ctx, self.out, &self.arb, &self.has) {
                Some(t) => ctx.drive_token(self.out, t, t as u64),
                None => ctx.drive_idle(self.out),
            }
        }
        fn tick(&mut self, ctx: &TickCtx<'_, u64>) {
            if let Some(t) = self.select.on_tick(ctx, self.out) {
                self.arb.commit(t);
            }
        }
        impl_as_any!();
    }

    #[test]
    fn prefers_downstream_ready_thread() {
        // Thread 0 and 1 both have data; the sink is only ever ready for
        // thread 1 — selection must route around the blocked thread.
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[true, true]));
        let mut sink = Sink::with_capture("snk", ch, 2, ReadyPolicy::Never);
        sink.set_policy(1, ReadyPolicy::Always);
        b.add(sink);
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        assert_eq!(circuit.stats().transfers(ch, 0), 0);
        // The anti-swap guard may cost one cycle at cold start before the
        // selection pivots to the ready thread.
        assert!(circuit.stats().transfers(ch, 1) >= 9);
    }

    #[test]
    fn no_data_drives_idle() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[false, false]));
        b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(5).expect("clean");
        assert_eq!(circuit.stats().total_transfers(ch), 0);
        assert_eq!(circuit.stats().utilization(ch), 0.0);
    }

    #[test]
    fn alternates_threads_when_both_ready() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[true, true]));
        b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        assert_eq!(circuit.stats().transfers(ch, 0), 5);
        assert_eq!(circuit.stats().transfers(ch, 1), 5);
    }
}
