//! The synchronous simulation kernel.
//!
//! Each cycle proceeds in two phases, mirroring synchronous hardware:
//!
//! 1. **Combinational settle** — components' [`eval`](crate::Component::eval)
//!    run until no signal changes (fixed point). Components are evaluated
//!    in the *rank order* the builder compiled from their declared
//!    combinational paths ([`Component::comb_paths`](crate::Component::comb_paths)):
//!    every component comes after everything it depends on, so on an
//!    acyclic net the single full sweep of round 1 *is* the fixed point.
//!    The default [`EvalMode::EventDriven`] kernel then re-evaluates only
//!    *dirty* components: when a channel's `valid`/`data` changes its
//!    reader is woken **iff it declared a path triggered by that signal**,
//!    likewise the driver on a `ready` change; residual rounds fire only
//!    for hysteretic arbiters on feedback channels. Zero-latency handshake
//!    cycles are rejected at `build()` time
//!    ([`BuildError::CombinationalLoop`](crate::BuildError::CombinationalLoop))
//!    — exactly the class of circuit that is illegal in elastic design
//!    unless cut by an elastic buffer; the runtime
//!    [`SimError::CombinationalLoop`] cap survives only as a safety net
//!    for damped feedback loops.
//! 2. **Clock edge** — one pass over the channels checks the protocol
//!    invariants and counts which transfers fire (`valid(i) && ready(i)`);
//!    every component's [`tick`](crate::Component::tick) then updates its
//!    registers, reporting any fault through [`TickCtx::fault`].
//!
//! A cycle that converges after its single full sweep goes straight to
//! the clock edge, which keeps the event-driven kernel cheap (see
//! `docs/kernel.md`). Every cycle is stepped, including cycles with no
//! token anywhere.
//!
//! The hot loop is allocation-free (see `docs/perf.md`): handshake bits
//! live in packed [`ThreadMask`] words, the dirty set is itself a mask
//! over components, change detection happens word-level inside the
//! signal setters, and the batch drivers [`Circuit::run`] /
//! [`Circuit::run_until`] skip transfer-record collection entirely.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::channel::{ChannelId, ChannelState};
use crate::component::{Component, FusedOpKind};
use crate::error::{ProtocolError, SimError};
use crate::mask::ThreadMask;
use crate::rank::Schedule;
use crate::stats::{StallStreak, Stats};
use crate::token::Token;
use crate::trace::{ChannelTrace, CycleTrace, TraceRecorder};

/// How the settle phase schedules component evaluations each cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvalMode {
    /// Event-driven dirty-set kernel (default): after one full sweep,
    /// only components woken by a signal change on a channel they read
    /// or drive are re-evaluated, until the worklist drains.
    #[default]
    EventDriven,
    /// Reference kernel: every settle iteration re-evaluates every
    /// component until an iteration changes nothing. Kept as the
    /// equivalence oracle for tests, benches and the ablation binary.
    Exhaustive,
}

/// Combinational-phase view of the circuit handed to
/// [`Component::eval`](crate::Component::eval).
///
/// Setters enforce signal ownership: a component may drive `valid`/`data`
/// only on its output channels and `ready` only on its input channels.
/// Every effective change is recorded in the kernel's dirty set — a
/// `valid`/`data` change wakes the channel's reader, a `ready` change
/// wakes its driver. Change detection is word-level: the packed masks
/// report whether a write flipped anything, so the kernel never clones
/// channel state to diff it.
pub struct EvalCtx<'a, T: Token> {
    pub(crate) channels: &'a mut [ChannelState<T>],
    /// Per-component wake flags: set when a signal a component depends on
    /// changes, consumed by the settle loop's worklist rounds.
    pub(crate) woke: &'a mut ThreadMask,
    /// Whether any signal changed during the current settle round.
    pub(crate) changed: &'a mut bool,
    pub(crate) current: usize,
    pub(crate) driver: &'a [usize],
    pub(crate) reader: &'a [usize],
    /// Per-channel: the reader declared a combinational path triggered by
    /// this channel's `valid`/`data` (see [`Component::comb_paths`]).
    pub(crate) listen_valid: &'a [bool],
    /// Per-channel: the driver declared a path triggered by `ready`.
    pub(crate) listen_ready: &'a [bool],
    /// Per-channel: `valid` and `ready` share a combinational SCC.
    pub(crate) feedback: &'a [bool],
    /// Per-channel: a `valid`/`data` change re-wakes the driver itself.
    pub(crate) self_wake_valid: &'a [bool],
    /// Per-channel: a `ready` change re-wakes the reader itself.
    pub(crate) self_wake_ready: &'a [bool],
    pub(crate) cycle: u64,
    /// True during the step's first settle round (see
    /// [`first_eval`](Self::first_eval)).
    pub(crate) first: bool,
}

impl<'a, T: Token> EvalCtx<'a, T> {
    /// Index of the cycle currently being evaluated (0-based).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True when this is the component's first evaluation of the step:
    /// the step's first settle round, a full sweep that evaluates every
    /// component exactly once in both [`EvalMode`]s. Registered state
    /// changes only at the clock edge and between steps, so whatever a
    /// component derives from it alone (a `ready` word, a mask of heads)
    /// is built when this is true and reused by every later evaluation
    /// of the step. It is also what the anti-swap guard reads: the first
    /// pick of a step is fresh, only later ones are damped.
    #[inline]
    pub fn first_eval(&self) -> bool {
        self.first
    }

    /// True when channel `ch` takes part in a combinational feedback
    /// cycle (its `valid` and `ready` belong to one SCC of the declared
    /// path graph — necessarily through a damped hysteretic path, or the
    /// netlist would have been rejected at build time).
    ///
    /// Ready-aware arbiters use this to decide whether their anti-swap
    /// settle guard is needed: on a feedback channel the downstream
    /// `ready` can combinationally depend on the arbiter's own `valid`,
    /// so the selection must be damped to converge; on a DAG channel the
    /// guard is unnecessary and disabling it keeps the evaluation a pure
    /// function of its inputs (hence order-independent).
    #[inline]
    pub fn in_feedback(&self, ch: ChannelId) -> bool {
        self.feedback[ch.0]
    }

    /// The anti-swap guard on a ready-first pick for `out`: returns the
    /// thread to offer, given the threads `has` that have data and the
    /// arbiter's `pick` among those that are also ready.
    ///
    /// The guard damps the settle phase only: not on the step's first
    /// evaluation ([`first_eval`](Self::first_eval)), whose decision is
    /// fresh because the previous cycle's (possibly stalled) offer holds
    /// no claim, and only on a feedback channel
    /// ([`in_feedback`](Self::in_feedback)). There, while this driver
    /// already offers a thread `c` that still has data but is not ready,
    /// it may abandon `c` only for the ready thread of lowest rank in the
    /// global rotating priority (rank 0 is thread `cycle mod S`), and
    /// only if that rank is lower than `c`'s. Two drivers feeding an
    /// M-Join otherwise chase each other's offers forever (each one's
    /// downstream `ready(i)` is the other's `valid(i)`); the shared
    /// priority makes exactly one of them yield, so the pairing
    /// converges within a bounded number of switches. Off feedback
    /// cycles the rank schedule evaluates the consumer first, so the
    /// first evaluation already sees final ready bits and `pick` stands:
    /// selection stays a function of the inputs alone.
    #[inline]
    pub fn anti_swap(&self, out: ChannelId, has: &ThreadMask, pick: usize) -> usize {
        if self.first || !self.in_feedback(out) {
            return pick;
        }
        let ready = self.ready_mask(out);
        match self.valid_mask(out).first_one() {
            Some(c) if has.get(c) && !ready.get(c) => {
                let threads = has.threads();
                let base = self.cycle as usize % threads;
                let rank = |t: usize| (t + threads - base) % threads;
                // The lowest rank among ready threads with data is the
                // first one at or after the rotation point.
                let best = has
                    .next_one_wrapping_and(ready, base)
                    .expect("`pick` has data and is ready");
                if rank(best) < rank(c) {
                    best
                } else {
                    c
                }
            }
            _ => pick,
        }
    }

    /// Thread count of channel `ch`.
    #[inline]
    pub fn threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// Current `valid(thread)` on `ch`.
    #[inline]
    pub fn valid(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].valid.get(thread)
    }

    /// Current `ready(thread)` on `ch`.
    #[inline]
    pub fn ready(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].ready.get(thread)
    }

    /// The packed `valid` mask of `ch` (all threads at once).
    #[inline]
    pub fn valid_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].valid
    }

    /// The packed `ready` mask of `ch` (all threads at once).
    #[inline]
    pub fn ready_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].ready
    }

    /// Current data word on `ch` (driven by the producer).
    #[inline]
    pub fn data(&self, ch: ChannelId) -> Option<&T> {
        self.channels[ch.0].data.as_ref()
    }

    /// The single asserted thread and its data, if exactly one `valid(i)`
    /// is high and data is present.
    #[inline]
    pub fn incoming(&self, ch: ChannelId) -> Option<(usize, &T)> {
        let st = &self.channels[ch.0];
        let t = st.single_valid()?;
        st.data.as_ref().map(|d| (t, d))
    }

    /// Marks the channel's reader dirty — but only if it declared a path
    /// triggered by this channel's `valid`/`data`; an unlistened signal
    /// provably cannot change the reader's eval. The current component
    /// (the driver) also self-wakes when the channel is on a feedback
    /// cycle and the driver declared a damped arc: hysteretic selection
    /// reads its own driven `valid`, so its eval must re-run until it is
    /// a no-op — the oracle's convergence condition. Every other eval is
    /// a function of registered state and its declared inputs, so
    /// re-running it on its own write would change nothing.
    #[inline]
    fn wake_reader(&mut self, ch: usize) {
        *self.changed = true;
        if self.listen_valid[ch] {
            self.woke.set(self.reader[ch], true);
        }
        if self.self_wake_valid[ch] {
            self.woke.set(self.current, true);
        }
    }

    /// Marks the channel's driver dirty (same filtering as
    /// [`wake_reader`](Self::wake_reader), for `ready` changes; the
    /// current component is the reader, and self-wakes by the same
    /// rule).
    #[inline]
    fn wake_driver(&mut self, ch: usize) {
        *self.changed = true;
        if self.listen_ready[ch] {
            self.woke.set(self.driver[ch], true);
        }
        if self.self_wake_ready[ch] {
            self.woke.set(self.current, true);
        }
    }

    #[inline]
    fn assert_drives(&self, ch: ChannelId, signal: &str) {
        assert_eq!(
            self.driver[ch.0], self.current,
            "component tried to drive {signal} on channel `{}` it does not own",
            self.channels[ch.0].spec.name
        );
    }

    #[inline]
    fn assert_reads(&self, ch: ChannelId) {
        assert_eq!(
            self.reader[ch.0], self.current,
            "component tried to drive ready on channel `{}` it does not read",
            self.channels[ch.0].spec.name
        );
    }

    /// Drives `valid(thread)` on an output channel.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `ch` — this is a component-implementation bug.
    #[inline]
    pub fn set_valid(&mut self, ch: ChannelId, thread: usize, value: bool) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.set(thread, value) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives `valid(thread)` high and every other thread's valid low in
    /// one word-level pass (the MT channel invariant: at most one valid
    /// thread per cycle).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of `ch`.
    #[inline]
    pub fn set_valid_only(&mut self, ch: ChannelId, thread: usize) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.set_only(thread) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives the data word on an output channel with an owned token — for
    /// tokens the component computes. Stored tokens go through
    /// [`set_data_ref`](Self::set_data_ref) and pass-through tokens through
    /// [`forward_data`](Self::forward_data), which compare before they
    /// clone.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of `ch`.
    #[inline]
    pub fn set_data(&mut self, ch: ChannelId, value: Option<T>) {
        self.assert_drives(ch, "data");
        let slot = &mut self.channels[ch.0].data;
        if *slot != value {
            *slot = value;
            self.wake_reader(ch.0);
        }
    }

    /// Drives the data word on an output channel from a borrowed token (a
    /// buffer register, a queue head). The token is compared with the
    /// slot first and cloned only when it differs, so a settle
    /// re-evaluation that offers the same token clones nothing. Same
    /// slot contents and wakes as [`set_data`](Self::set_data).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of `ch`.
    #[inline]
    pub fn set_data_ref(&mut self, ch: ChannelId, value: Option<&T>) {
        self.assert_drives(ch, "data");
        let slot = &mut self.channels[ch.0].data;
        if slot.as_ref() != value {
            *slot = value.cloned();
            self.wake_reader(ch.0);
        }
    }

    /// Drives the data word of output `to` with the data word of input
    /// `from`, as a pass-through unit does. Compares before it clones,
    /// like [`set_data_ref`](Self::set_data_ref).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `to`, or if `from == to`.
    #[inline]
    pub fn forward_data(&mut self, from: ChannelId, to: ChannelId) {
        self.assert_drives(to, "data");
        let (src, dst) = self.pair(from, to);
        if dst.data != src.data {
            dst.data.clone_from(&src.data);
            self.wake_reader(to.0);
        }
    }

    /// Drives `valid(to) = valid(from) ∧ gate` (`gate` absent: all ones)
    /// on output `to` in one word-level commit — the forward handshake of
    /// a pass-through unit. Wakes exactly as the per-thread
    /// [`set_valid`](Self::set_valid) loop would (see
    /// [`set_valid_mask`](Self::set_valid_mask)).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `to`, if `from == to`, or if the channel and gate widths differ.
    #[inline]
    pub fn forward_valid(&mut self, from: ChannelId, to: ChannelId, gate: Option<&ThreadMask>) {
        self.assert_drives(to, "valid");
        let (src, dst) = self.pair(from, to);
        let changed = match gate {
            Some(gate) => dst.valid.assign_and(&src.valid, gate),
            None => dst.valid.assign(&src.valid),
        };
        if changed {
            self.wake_reader(to.0);
        }
    }

    /// Drives `ready(to) = ready(from) ∧ gate` on input `to` from the
    /// `ready` of output `from`: the backward handshake of a pass-through
    /// unit, the counterpart of [`forward_valid`](Self::forward_valid).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of
    /// `to`, if `from == to`, or if the channel and gate widths differ.
    #[inline]
    pub fn forward_ready(&mut self, from: ChannelId, to: ChannelId, gate: Option<&ThreadMask>) {
        self.assert_reads(to);
        let (src, dst) = self.pair(from, to);
        let changed = match gate {
            Some(gate) => dst.ready.assign_and(&src.ready, gate),
            None => dst.ready.assign(&src.ready),
        };
        if changed {
            self.wake_driver(to.0);
        }
    }

    /// Shared access to channel `from` next to exclusive access to `to`.
    #[inline]
    fn pair(&mut self, from: ChannelId, to: ChannelId) -> (&ChannelState<T>, &mut ChannelState<T>) {
        assert_ne!(
            from, to,
            "a pass-through cannot forward a channel onto itself"
        );
        if from.0 < to.0 {
            let (lo, hi) = self.channels.split_at_mut(to.0);
            (&lo[from.0], &mut hi[0])
        } else {
            let (lo, hi) = self.channels.split_at_mut(from.0);
            (&hi[0], &mut lo[to.0])
        }
    }

    /// Drives `ready(thread)` on an input channel.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of `ch`.
    #[inline]
    pub fn set_ready(&mut self, ch: ChannelId, thread: usize, value: bool) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.set(thread, value) {
            self.wake_driver(ch.0);
        }
    }

    /// Drives `ready(thread)` high and every other thread's ready low in
    /// one word-level pass.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of `ch`.
    #[inline]
    pub fn set_ready_only(&mut self, ch: ChannelId, thread: usize) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.set_only(thread) {
            self.wake_driver(ch.0);
        }
    }

    /// Drives the whole packed `valid` mask of an output channel in one
    /// word-level commit. Observably identical to calling
    /// [`set_valid`](Self::set_valid) for every thread: the wake targets
    /// of a `valid` change do not depend on *which* thread flipped, so a
    /// single reader wake after a word-level diff ([`ThreadMask::assign`])
    /// reaches exactly the same dirty set.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `ch`, or if the mask width differs from the channel's.
    #[inline]
    pub fn set_valid_mask(&mut self, ch: ChannelId, mask: &ThreadMask) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.assign(mask) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives the whole packed `ready` mask of an input channel in one
    /// word-level commit (the `ready`-side counterpart of
    /// [`set_valid_mask`](Self::set_valid_mask)).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of
    /// `ch`, or if the mask width differs from the channel's.
    #[inline]
    pub fn set_ready_mask(&mut self, ch: ChannelId, mask: &ThreadMask) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.assign(mask) {
            self.wake_driver(ch.0);
        }
    }

    /// Convenience: drives all `valid` bits low and clears data on an
    /// output channel (an idle producer). Word-level: one clear per mask
    /// word instead of a per-thread loop.
    #[inline]
    pub fn drive_idle(&mut self, ch: ChannelId) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.clear() {
            self.wake_reader(ch.0);
        }
        self.set_data(ch, None);
    }

    /// Convenience: asserts `valid(thread)` with `data`, deasserting every
    /// other thread's valid bit (the MT channel invariant).
    #[inline]
    pub fn drive_token(&mut self, ch: ChannelId, thread: usize, data: T) {
        self.set_valid_only(ch, thread);
        self.set_data(ch, Some(data));
    }

    /// [`drive_token`](Self::drive_token) for a stored token, cloned only
    /// when it differs from the slot (see
    /// [`set_data_ref`](Self::set_data_ref)).
    #[inline]
    pub fn drive_token_ref(&mut self, ch: ChannelId, thread: usize, data: &T) {
        self.set_valid_only(ch, thread);
        self.set_data_ref(ch, Some(data));
    }

    /// Convenience: drives every `ready` bit of an input channel low.
    /// Word-level: one clear per mask word instead of a per-thread loop.
    #[inline]
    pub fn drive_unready(&mut self, ch: ChannelId) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.clear() {
            self.wake_driver(ch.0);
        }
    }
}

/// Clock-edge view of the circuit handed to
/// [`Component::tick`](crate::Component::tick): read-only access to the
/// settled signals of the finishing cycle, plus
/// [`fault`](TickCtx::fault) to report a fault found at the edge.
pub struct TickCtx<'a, T: Token> {
    pub(crate) channels: &'a [ChannelState<T>],
    pub(crate) cycle: u64,
    /// Whether the component being ticked called [`fault`](Self::fault):
    /// the one flag the kernel reads after every `tick`.
    faulted: Cell<bool>,
    fault: Cell<Option<ProtocolError>>,
}

impl<'a, T: Token> TickCtx<'a, T> {
    fn new(channels: &'a [ChannelState<T>], cycle: u64) -> Self {
        Self {
            channels,
            cycle,
            faulted: Cell::new(false),
            fault: Cell::new(None),
        }
    }

    /// Latches a fault found while processing this clock edge: a
    /// protocol violation, or a token the component cannot process. The
    /// kernel turns it into [`SimError::Component`] naming the component,
    /// once every component has ticked. A component reports at most one
    /// fault per edge; a second call in the same `tick` is ignored.
    #[cold]
    pub fn fault(&self, error: ProtocolError) {
        if !self.faulted.replace(true) {
            self.fault.set(Some(error));
        }
    }

    /// Moves the latched fault out as the error of component
    /// `component`, re-arming the context for the next component's
    /// `tick`.
    #[cold]
    fn take_error(&self, component: &str) -> SimError {
        self.faulted.set(false);
        SimError::Component {
            cycle: self.cycle,
            component: component.to_string(),
            error: self
                .fault
                .take()
                .expect("a raised fault flag has its fault"),
        }
    }

    /// Index of the cycle whose clock edge is being processed.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Thread count of channel `ch`.
    #[inline]
    pub fn threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// Settled `valid(thread)`.
    #[inline]
    pub fn valid(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].valid.get(thread)
    }

    /// Settled `ready(thread)`.
    #[inline]
    pub fn ready(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].ready.get(thread)
    }

    /// The settled packed `valid` mask of `ch`.
    #[inline]
    pub fn valid_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].valid
    }

    /// The settled packed `ready` mask of `ch`.
    #[inline]
    pub fn ready_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].ready
    }

    /// Settled data word.
    #[inline]
    pub fn data(&self, ch: ChannelId) -> Option<&T> {
        self.channels[ch.0].data.as_ref()
    }

    /// Whether thread `t`'s transfer fired on `ch` this cycle.
    #[inline]
    pub fn fired(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].fires(thread)
    }

    /// The thread and token of the transfer that fired on `ch`, if any.
    #[inline]
    pub fn fired_any(&self, ch: ChannelId) -> Option<(usize, &T)> {
        let st = &self.channels[ch.0];
        let t = st.single_valid()?;
        if st.ready.get(t) {
            st.data.as_ref().map(|d| (t, d))
        } else {
            None
        }
    }
}

/// One fired transfer, as reported by [`Circuit::step`].
///
/// Carries only the interned [`ChannelId`] and thread index; resolve the
/// channel name at render time via
/// [`Circuit::channel_name`](Circuit::channel_name) instead of cloning a
/// `String` per transfer on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// Channel on which the transfer fired.
    pub channel: ChannelId,
    /// Thread that moved.
    pub thread: usize,
}

/// Summary of one simulated cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleReport {
    /// Index of the cycle that just completed.
    pub cycle: u64,
    /// All transfers that fired.
    pub transfers: Vec<Transfer>,
}

/// A fully wired synchronous elastic circuit.
///
/// Build one with [`CircuitBuilder`](crate::CircuitBuilder), then drive it
/// with [`step`](Circuit::step) / [`run`](Circuit::run).
pub struct Circuit<T: Token> {
    /// Components in rank (evaluation) order.
    pub(crate) components: Vec<Box<dyn Component<T>>>,
    /// Per-component op class ([`Component::op_kind`]), read once at
    /// build time so the settle loop tallies per-op evals without a
    /// virtual call.
    pub(crate) op_kinds: Vec<FusedOpKind>,
    pub(crate) channels: Vec<ChannelState<T>>,
    /// Per-channel driving component — doubles as the `ready`-change wake
    /// map of the event-driven kernel.
    pub(crate) driver: Vec<usize>,
    /// Per-channel reading component — doubles as the `valid`/`data`
    /// wake map of the event-driven kernel.
    pub(crate) reader: Vec<usize>,
    /// Per-channel wake filter: reader listens to `valid`/`data` changes.
    listen_valid: Vec<bool>,
    /// Per-channel wake filter: driver listens to `ready` changes.
    listen_ready: Vec<bool>,
    /// Per-channel: part of a (damped) combinational feedback cycle.
    feedback: Vec<bool>,
    /// Per-channel: a `valid`/`data` change re-wakes its driver.
    self_wake_valid: Vec<bool>,
    /// Per-channel: a `ready` change re-wakes its reader.
    self_wake_ready: Vec<bool>,
    /// Widest rank level of the compiled schedule.
    rank_width: u64,
    mode: EvalMode,
    /// Scratch wake flags, one bit per component (the dirty set).
    woke: ThreadMask,
    cycle: u64,
    stats: Stats,
    recorder: Option<TraceRecorder>,
    watchdog: Option<u64>,
    idle_cycles: u64,
    /// Cycle of the most recent fired transfer, for watchdog reports.
    last_progress: Option<u64>,
    /// Faults latched at the last clock edge and not yet returned, in
    /// evaluation order: each [`step`](Circuit::step) returns the next
    /// one before it simulates anything.
    faults: VecDeque<SimError>,
    /// Per channel: its backpressure streak before this cycle's stall,
    /// so a cycle that fails its channel checks can take back the
    /// statistics it already wrote.
    streak_undo: Vec<StallStreak>,
    /// Accumulate settle-phase wall time into
    /// [`KernelStats::settle_nanos`] (off by default: two clock reads per
    /// cycle are pure overhead outside kernel-ablation runs).
    time_settle: bool,
    /// The transfers [`step`](Circuit::step) collects, kept across cycles
    /// so that the buffer grows only to the widest cycle's count.
    transfers: Vec<Transfer>,
}

impl<T: Token> Circuit<T> {
    pub(crate) fn from_parts(
        components: Vec<Box<dyn Component<T>>>,
        channels: Vec<ChannelState<T>>,
        driver: Vec<usize>,
        reader: Vec<usize>,
        schedule: Schedule,
    ) -> Self {
        let stats = Stats::new(
            channels
                .iter()
                .map(|c| (c.spec.name.clone(), c.spec.threads)),
        );
        let woke = ThreadMask::new(components.len());
        let op_kinds = components.iter().map(|c| c.op_kind()).collect();
        let streak_undo = vec![StallStreak::NONE; channels.len()];
        Self {
            components,
            op_kinds,
            channels,
            driver,
            reader,
            listen_valid: schedule.listen_valid,
            listen_ready: schedule.listen_ready,
            feedback: schedule.feedback,
            self_wake_valid: schedule.self_wake_valid,
            self_wake_ready: schedule.self_wake_ready,
            rank_width: schedule.rank_width,
            mode: EvalMode::default(),
            woke,
            cycle: 0,
            stats,
            recorder: None,
            watchdog: None,
            idle_cycles: 0,
            last_progress: None,
            faults: VecDeque::new(),
            streak_undo,
            time_settle: false,
            transfers: Vec::new(),
        }
    }

    /// Index of the next cycle to simulate (0 before the first
    /// [`step`](Circuit::step)).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The active settle-phase scheduling mode.
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Selects the settle-phase scheduling mode. Both modes reach the
    /// same fixed point (the exhaustive sweep is kept as the equivalence
    /// oracle); they differ only in how many `eval` calls they spend.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resets the statistics counters (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Rewinds the circuit to its freshly built state **without
    /// re-running elaboration**: every component is reset to empty
    /// ([`Component::reset`]), all channel signals are cleared, and the
    /// clock, statistics, dirty set and watchdog bookkeeping start over.
    ///
    /// This lets a driver run many points on one elaborated circuit
    /// instead of paying `build()` per point. The structure (components,
    /// channels, compiled rank schedule), the eval mode and any armed
    /// watchdog persist; recorded traces and faults not yet returned by
    /// [`step`](Circuit::step) are dropped, and tracing is switched off
    /// (call [`enable_trace`](Circuit::enable_trace) again if needed).
    ///
    /// # Errors
    ///
    /// [`SimError::ResetUnsupported`] if any component keeps the
    /// conservative default `reset` (the circuit is left partially reset
    /// and must be rebuilt). All shipped primitives support reset.
    pub fn reset(&mut self) -> Result<(), SimError> {
        for (i, c) in self.components.iter_mut().enumerate() {
            if !c.reset() {
                return Err(SimError::ResetUnsupported {
                    index: i,
                    component: c.name().to_string(),
                });
            }
        }
        for ch in &mut self.channels {
            ch.valid.clear();
            ch.ready.clear();
            ch.data = None;
        }
        self.woke.clear();
        self.cycle = 0;
        self.stats.reset();
        self.recorder = None;
        self.idle_cycles = 0;
        self.last_progress = None;
        self.faults.clear();
        Ok(())
    }

    /// Starts recording cycle traces (unbounded).
    pub fn enable_trace(&mut self) {
        let mut r = TraceRecorder::new();
        r.set_names(self.component_names());
        self.recorder = Some(r);
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Arms (or disarms) settle-phase wall timing: while enabled, every
    /// stepped cycle adds the wall time of its combinational settle loop
    /// to [`KernelStats::settle_nanos`]. The clock reads sit outside the
    /// measured span, and the flag is off by default so ordinary runs pay
    /// nothing. Kernel ablations gate on this number — it isolates the
    /// combinational phase from the tick/capture phases around it.
    ///
    /// [`KernelStats::settle_nanos`]: crate::KernelStats::settle_nanos
    pub fn set_settle_timing(&mut self, enabled: bool) {
        self.time_settle = enabled;
    }

    /// Arms a deadlock watchdog: [`step`](Circuit::step) returns
    /// [`SimError::Deadlock`] after `cycles` consecutive transfer-free
    /// cycles. Disarm with `None`.
    pub fn set_deadlock_watchdog(&mut self, cycles: Option<u64>) {
        self.watchdog = cycles;
        self.idle_cycles = 0;
    }

    /// Cycle of the most recent cycle in which some transfer fired, if
    /// any — the per-cycle progress signal drivers read after
    /// [`run`](Circuit::run) instead of collecting a
    /// [`CycleReport`] through [`step`](Circuit::step).
    pub fn last_progress(&self) -> Option<u64> {
        self.last_progress
    }

    /// Replaces the component named `name` by `wrap(component)`, keeping
    /// its place in the compiled schedule. The wrapper must present the
    /// same ports, combinational paths and op kind; tests use this to
    /// run a built circuit with a primitive's reference evaluation.
    /// Returns `false` if no component has that name.
    #[doc(hidden)]
    pub fn wrap_component(
        &mut self,
        name: &str,
        wrap: impl FnOnce(Box<dyn Component<T>>) -> Box<dyn Component<T>>,
    ) -> bool {
        let Some(i) = self.component_index(name) else {
            return false;
        };
        let inner = self.components.remove(i);
        self.components.insert(i, wrap(inner));
        true
    }

    /// Evaluation-order index of the component named `name`, if any.
    fn component_index(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name() == name)
    }

    /// Immutable access to a component by instance name.
    pub fn component(&self, name: &str) -> Option<&dyn Component<T>> {
        self.component_index(name)
            .map(|i| self.components[i].as_ref())
    }

    /// Typed immutable access to a component by instance name.
    ///
    /// Returns `None` if no component has that name *or* it is not a `C`.
    pub fn get<C: Component<T> + 'static>(&self, name: &str) -> Option<&C> {
        self.component(name)
            .and_then(|c| c.as_any().downcast_ref::<C>())
    }

    /// Typed mutable access to a component by instance name.
    pub fn get_mut<C: Component<T> + 'static>(&mut self, name: &str) -> Option<&mut C> {
        let i = self.component_index(name)?;
        self.components[i].as_any_mut().downcast_mut::<C>()
    }

    /// Names of all components, in evaluation order.
    pub fn component_names(&self) -> Vec<String> {
        self.components
            .iter()
            .map(|c| c.name().to_string())
            .collect()
    }

    /// Name of channel `ch`.
    pub fn channel_name(&self, ch: ChannelId) -> &str {
        &self.channels[ch.0].spec.name
    }

    /// Thread count of channel `ch`.
    pub fn channel_threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// All channel ids, in creation order.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        (0..self.channels.len()).map(ChannelId).collect()
    }

    /// Evaluation-order index of the component driving channel `ch`.
    pub fn channel_driver(&self, ch: ChannelId) -> usize {
        self.driver[ch.0]
    }

    /// Evaluation-order index of the component reading channel `ch`.
    pub fn channel_reader(&self, ch: ChannelId) -> usize {
        self.reader[ch.0]
    }

    /// Simulates one clock cycle.
    ///
    /// # Errors
    ///
    /// * [`SimError::CombinationalLoop`] — the handshake network did not
    ///   settle within the iteration cap (only reachable through a damped
    ///   feedback loop whose hysteresis guarantee is broken; all-strict
    ///   cycles are already rejected at build time);
    /// * [`SimError::ChannelInvariant`] — two threads asserted valid on the
    ///   same channel in the same cycle;
    /// * [`SimError::MissingData`] — a producer asserted valid without data;
    /// * [`SimError::Component`] — a component latched a fault at the
    ///   clock edge through [`TickCtx::fault`] (the edge has happened, so
    ///   the cycle counter has advanced past it). When several components
    ///   fault at one edge, the first in evaluation order is returned and
    ///   each following `step` returns the next one, with the same cycle,
    ///   without simulating;
    /// * [`SimError::Deadlock`] — the watchdog fired (if armed).
    pub fn step(&mut self) -> Result<CycleReport, SimError> {
        self.step_collect(true)
    }

    /// The cycle loop body. `collect` controls whether fired transfers
    /// are materialised into the report — the batch drivers
    /// ([`run`](Circuit::run), [`run_until`](Circuit::run_until)) pass
    /// `false` and skip the per-transfer record pushes entirely, since
    /// they discard the report anyway. Statistics, traces, invariant
    /// checks and the watchdog behave identically either way.
    fn step_collect(&mut self, collect: bool) -> Result<CycleReport, SimError> {
        // Later faults of the last clock edge come out one per step.
        if let Some(error) = self.faults.pop_front() {
            return Err(error);
        }
        // Phase 1: combinational fixed point. Signals are *warm-started*
        // from the previous cycle's settled values: every component
        // re-drives all signals it owns whenever it is evaluated (the
        // total-drive rule), so stale values cannot survive to the fixed
        // point, and the previous cycle is usually an excellent initial
        // guess — both faster and closer to how real combinational logic
        // leaves the previous cycle's voltages on the wires.
        //
        // Round 1 is always a full sweep (eval may depend on the cycle
        // number — sink ready policies, source release times), so it
        // evaluates every component exactly once; it is the round in which
        // `EvalCtx::first_eval` is true, in both modes. Subsequent
        // rounds depend on the mode: the exhaustive oracle re-sweeps
        // everything until a sweep changes nothing, the event-driven
        // kernel drains the dirty worklist. Each round claims a
        // component's wake flag *before* evaluating it, so a wake issued
        // by an earlier component in the same round is serviced in-round
        // (the sweep stays Gauss–Seidel in component index order) while a
        // wake aimed at an already-evaluated component carries over to
        // the next round.
        let n = self.components.len();
        let max_rounds = 2 * n + 8;
        let exhaustive = self.mode == EvalMode::Exhaustive;
        let mut rounds = 0usize;
        let mut evals = 0usize;
        let mut stable = false;
        let mut op_evals = [0u64; FusedOpKind::COUNT];
        self.woke.clear();
        let settle_start = self.time_settle.then(std::time::Instant::now);
        while rounds < max_rounds {
            let full = exhaustive || rounds == 0;
            let mut changed = false;
            // One context per round: per evaluation only `current` moves.
            let mut ctx = EvalCtx {
                channels: &mut self.channels,
                woke: &mut self.woke,
                changed: &mut changed,
                current: 0,
                driver: &self.driver,
                reader: &self.reader,
                listen_valid: &self.listen_valid,
                listen_ready: &self.listen_ready,
                feedback: &self.feedback,
                self_wake_valid: &self.self_wake_valid,
                self_wake_ready: &self.self_wake_ready,
                cycle: self.cycle,
                first: rounds == 0,
            };
            for (i, comp) in self.components.iter_mut().enumerate() {
                if !full && !ctx.woke.get(i) {
                    continue;
                }
                ctx.woke.set(i, false);
                ctx.current = i;
                comp.eval(&mut ctx);
                evals += 1;
                op_evals[self.op_kinds[i] as usize] += 1;
            }
            rounds += 1;
            // Convergence: the oracle stops when a sweep changes nothing
            // (the historical criterion); the dirty-set kernel stops as
            // soon as the worklist is empty — every component whose
            // inputs changed has been re-evaluated, so the network is at
            // a fixed point even if this round did change signals.
            let converged = if exhaustive {
                !changed
            } else {
                !self.woke.any()
            };
            if converged {
                stable = true;
                break;
            }
        }
        let settle_elapsed = settle_start.map(|t0| t0.elapsed());
        if !stable {
            return Err(SimError::CombinationalLoop {
                cycle: self.cycle,
                iterations: rounds,
            });
        }
        let kernel = self.stats.kernel_mut();
        if let Some(elapsed) = settle_elapsed {
            kernel.settle_nanos += elapsed.as_nanos() as u64;
        }
        kernel.component_evals += evals as u64;
        kernel.settle_rounds += rounds as u64;
        kernel.components_skipped += (rounds * n - evals) as u64;
        kernel.stepped_cycles += 1;
        // Re-stamped every cycle (rather than once at construction) so it
        // survives `reset_stats` after a warm-up window.
        kernel.rank_width = kernel.rank_width.max(self.rank_width);
        for (acc, delta) in kernel.fused_op_evals.iter_mut().zip(op_evals.iter()) {
            *acc += *delta;
        }

        // Phase 2: one pass over the channels. Each channel is checked
        // against the protocol invariants (one `valid` thread, data
        // present) before its statistics are written; idle channels are
        // not touched at all, because a backpressure streak ends by
        // itself when the channel does not stall the next cycle. A
        // failing channel takes back what the channels before it wrote,
        // so an erroring cycle leaves the statistics as they were.
        let cycle = self.cycle;
        self.transfers.clear();
        let mut fired = 0usize;
        let mut any_valid = false;
        for (ci, ch) in self.channels.iter().enumerate() {
            if !ch.valid.any() {
                continue;
            }
            let t = match ch.valid.single() {
                Some(t) if ch.data.is_some() => t,
                single => {
                    Self::unwind_stats(&self.channels[..ci], &mut self.stats, &self.streak_undo);
                    let channel = ch.spec.name.clone();
                    return Err(match single {
                        None => SimError::ChannelInvariant {
                            cycle,
                            channel,
                            threads: ch.valid.iter_ones().collect(),
                        },
                        Some(thread) => SimError::MissingData {
                            cycle,
                            channel,
                            thread,
                        },
                    });
                }
            };
            any_valid = true;
            let cs = self.stats.channel_mut(ChannelId(ci));
            cs.busy_cycles += 1;
            if ch.ready.get(t) {
                cs.transfers[t] += 1;
                fired += 1;
                if collect {
                    self.transfers.push(Transfer {
                        channel: ChannelId(ci),
                        thread: t,
                    });
                }
            } else {
                self.streak_undo[ci] = cs.streak;
                cs.stall_cycles[t] += 1;
                cs.record_stall_occupancy(cycle);
            }
        }

        // Watchdog: a cycle counts as "stuck" only when some token is
        // offered (a valid is asserted) yet nothing moves. A circuit with
        // no valid tokens at all is idle, not deadlocked. A deadlock
        // returns before the cycle is recorded and takes back the channel
        // pass, like a failed channel check: the statistics, the trace
        // and the idle count stay as they were, so stepping the cycle
        // again counts it once.
        if fired > 0 {
            self.last_progress = Some(cycle);
        }
        let idle_cycles = if fired == 0 && any_valid {
            self.idle_cycles + 1
        } else {
            0
        };
        if self.watchdog.is_some_and(|limit| idle_cycles >= limit) {
            Self::unwind_stats(&self.channels, &mut self.stats, &self.streak_undo);
            // Name the culprits: every (channel, thread) whose token is
            // being offered (valid high) without acceptance (ready low)
            // in the settled final cycle.
            let stalled = self
                .channels
                .iter()
                .flat_map(|ch| {
                    ch.valid
                        .iter_ones()
                        .filter(|&t| !ch.ready.get(t))
                        .map(|t| (ch.spec.name.clone(), t))
                })
                .collect();
            return Err(SimError::Deadlock {
                cycle,
                idle_cycles,
                last_progress: self.last_progress,
                stalled,
            });
        }
        self.idle_cycles = idle_cycles;
        self.stats.record_cycle();

        if let Some(recorder) = &mut self.recorder {
            let channels = self
                .channels
                .iter()
                .map(|ch| {
                    let t = ch.single_valid();
                    ChannelTrace {
                        valid_thread: t,
                        label: ch.data.as_ref().map(|d| d.label()),
                        fired: t.is_some_and(|t| ch.ready.get(t)),
                    }
                })
                .collect();
            // Slots are keyed by component index — the recorder's name
            // table resolves them at render time, so the hot path never
            // clones a component name.
            let mut slots = Vec::new();
            for (i, c) in self.components.iter().enumerate() {
                let s = c.slots();
                if !s.is_empty() {
                    slots.push((i, s));
                }
            }
            let record = CycleTrace {
                cycle,
                channels,
                slots,
            };
            recorder.push(record);
        }

        // Phase 3: the clock edge. A component that finds a fault at its
        // edge latches it through `TickCtx::fault`; the kernel collects
        // the faults in evaluation order and returns the first.
        let tick_ctx = TickCtx::new(&self.channels, cycle);
        for c in &mut self.components {
            c.tick(&tick_ctx);
            if tick_ctx.faulted.get() {
                self.faults.push_back(tick_ctx.take_error(c.name()));
            }
        }
        // The edge has happened, so the cycle advances even when it
        // faulted: stepping on resumes from the post-edge state instead of
        // replaying this cycle over it.
        self.cycle += 1;
        if let Some(error) = self.faults.pop_front() {
            return Err(error);
        }

        Ok(CycleReport {
            cycle,
            transfers: self.transfers.clone(),
        })
    }

    /// Takes back the statistics that the channel pass of this cycle
    /// wrote for `channels`: the channels before the one that failed its
    /// checks, or every channel when the watchdog fires. Each valid one
    /// has one valid thread and data.
    #[cold]
    fn unwind_stats(channels: &[ChannelState<T>], stats: &mut Stats, streak_undo: &[StallStreak]) {
        for (ci, ch) in channels.iter().enumerate() {
            let Some(t) = ch.valid.first_one() else {
                continue;
            };
            let cs = stats.channel_mut(ChannelId(ci));
            cs.busy_cycles -= 1;
            if ch.ready.get(t) {
                cs.transfers[t] -= 1;
            } else {
                cs.stall_cycles[t] -= 1;
                cs.unrecord_stall_occupancy(streak_undo[ci]);
            }
        }
    }

    /// Simulates `cycles` clock cycles, stepping every one of them.
    ///
    /// Unlike [`step`](Circuit::step), no per-transfer records are
    /// collected — the batch loop allocates nothing per cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`step`](Circuit::step).
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let end = self.cycle.saturating_add(cycles);
        while self.cycle < end {
            self.step_collect(false)?;
        }
        Ok(())
    }

    /// Steps until `pred` holds (checked *before* each step) or `max_cycles`
    /// elapse. Returns `true` if the predicate was satisfied.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`step`](Circuit::step).
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> Result<bool, SimError> {
        let end = self.cycle.saturating_add(max_cycles);
        while self.cycle < end {
            if pred(self) {
                return Ok(true);
            }
            self.step_collect(false)?;
        }
        Ok(pred(self))
    }
}

impl<T: Token> std::fmt::Debug for Circuit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .field("components", &self.component_names())
            .field(
                "channels",
                &self
                    .channels
                    .iter()
                    .map(|c| &c.spec.name)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}
