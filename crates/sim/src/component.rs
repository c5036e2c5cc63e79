//! The component model: combinational evaluation plus a clock edge.
//!
//! Every hardware block — buffers, operators, sources, sinks, datapath
//! units — implements [`Component`]. The kernel evaluates all components'
//! [`eval`](Component::eval) repeatedly until the handshake network settles
//! (combinational fixed point), then calls [`tick`](Component::tick) once
//! (the rising clock edge).
//!
//! # Rules for implementors
//!
//! 1. **Total drive** — `eval` must drive *every* signal the component owns
//!    (`valid`/`data` on its outputs, `ready` on its inputs) on every call:
//!    signals are warm-started from the previous cycle's settled values and
//!    `eval` runs several times per cycle, so anything left undriven leaks
//!    stale values into the fixed point.
//! 2. **Idempotence** — `eval` must be a pure function of the component's
//!    registered state and the current channel signals. All state updates
//!    (and any randomness) belong in `tick`.
//! 3. **No peeking forward** — `tick` observes the *settled* signals of the
//!    cycle via [`TickCtx`] and updates registers; it must not assume
//!    anything about the next cycle.

use crate::channel::ChannelId;
use crate::circuit::{EvalCtx, TickCtx};
use crate::token::Token;

/// A component's next self-scheduled activity, reported through
/// [`Component::next_event`].
///
/// When a cycle ends *quiescent* (no `valid` asserted anywhere, nothing
/// fired), the kernel's fast-path asks every component when it could next
/// change its outputs without any input changing first. If every answer is
/// [`Idle`](NextEvent::Idle) or [`At`](NextEvent::At), the clock jumps
/// straight to the earliest reported cycle instead of stepping through
/// provably empty cycles one by one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NextEvent {
    /// The component may change its outputs on any cycle. This is the
    /// conservative default; a single `EveryCycle` component disables the
    /// quiescence fast-path.
    EveryCycle,
    /// Purely reactive: the component produces no activity until one of
    /// its channel signals changes.
    Idle,
    /// Spontaneous activity no earlier than the given cycle (a source
    /// releasing its next timed token, a latency timer expiring).
    At(u64),
}

/// The input/output channel sets of a component.
///
/// Used by the builder to check that every channel has exactly one driver
/// (a component listing it in `outputs`) and one reader (in `inputs`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ports {
    /// Channels this component consumes (it drives their `ready` bits).
    pub inputs: Vec<ChannelId>,
    /// Channels this component produces (it drives `valid` and `data`).
    pub outputs: Vec<ChannelId>,
}

impl Ports {
    /// Builds a port set from input and output channel lists.
    pub fn new(
        inputs: impl IntoIterator<Item = ChannelId>,
        outputs: impl IntoIterator<Item = ChannelId>,
    ) -> Self {
        Self {
            inputs: inputs.into_iter().collect(),
            outputs: outputs.into_iter().collect(),
        }
    }
}

/// One declared combinational path through a component, reported by
/// [`Component::comb_paths`].
///
/// Each variant names the *trigger* signal (`from`) whose same-cycle value
/// the component's [`eval`](Component::eval) reads, and the signal (`to`)
/// it combinationally drives from that value. Channel `valid` and `data`
/// are treated as one forward signal (they are always driven together);
/// `ready` is the backward signal. The build-time scheduler assembles
/// these declarations into a signal-level dependency graph: it rejects
/// all-combinational cycles, derives the rank order that lets the settle
/// loop converge in a single sweep, and narrows the event-driven kernel's
/// wake map to the signals a component actually listens to.
///
/// **Completeness contract:** the declarations must cover *every* channel
/// signal `eval` reads. An undeclared read means the component is never
/// re-evaluated when that signal changes, silently corrupting the fixed
/// point. When in doubt, keep the conservative default (every input
/// combinationally reaches every output in both directions) — it is always
/// safe, merely less schedulable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CombPath {
    /// `valid`/`data` of input `from` combinationally drives `valid`/`data`
    /// of output `to` (a pass-through datapath, e.g. a zero-latency
    /// transform or a join).
    ValidToValid {
        /// Input channel whose valid/data is read.
        from: ChannelId,
        /// Output channel whose valid/data is driven.
        to: ChannelId,
    },
    /// `valid`/`data` of input `from` combinationally drives the `ready`
    /// the component asserts on input `to` (e.g. a join: each input is
    /// ready only when the *other* inputs are valid). `from == to` is
    /// legal and means ready depends on the same channel's own valid.
    ValidToReady {
        /// Input channel whose valid/data is read.
        from: ChannelId,
        /// Input channel whose ready is driven.
        to: ChannelId,
    },
    /// `ready` of output `from` combinationally drives `valid`/`data` of
    /// output `to` (ready-aware selection: an arbiter that offers only a
    /// downstream-ready thread). `from == to` is the common self-referential
    /// form.
    ///
    /// `damped: true` marks a *hysteretic* path: the component guards the
    /// selection so that re-evaluation with unchanged inputs keeps the
    /// previous choice (monotone within a cycle). Cycles through a damped
    /// path converge under the kernel's iteration cap and are therefore
    /// legal; cycles whose every edge is strict are rejected at build time.
    /// A component whose `eval` reads a signal it drives must declare a
    /// damped arc: on feedback channels the kernel re-evaluates a
    /// component after its own writes only if it declared one.
    ReadyToValid {
        /// Output channel whose ready is read.
        from: ChannelId,
        /// Output channel whose valid/data is driven.
        to: ChannelId,
        /// Whether the path is hysteretically damped (see above).
        damped: bool,
    },
    /// `ready` of output `from` combinationally drives the `ready` the
    /// component asserts on input `to` (classic elastic backpressure
    /// pass-through).
    ReadyToReady {
        /// Output channel whose ready is read.
        from: ChannelId,
        /// Input channel whose ready is driven.
        to: ChannelId,
    },
}

/// The conservative all-paths declaration for a port set: every input's
/// valid reaches every output's valid and every input's ready (including
/// its own), and every output's ready reaches every output's valid
/// (strict) and every input's ready.
///
/// This is the default returned by [`Component::comb_paths`]; it is always
/// safe (it can only over-approximate the true sensitivity), at the cost
/// of forcing the scheduler to assume the worst — a component using it
/// inside a feedback loop is rejected as a combinational cycle.
pub fn conservative_paths(ports: &Ports) -> Vec<CombPath> {
    let mut paths = Vec::new();
    for &i in &ports.inputs {
        for &o in &ports.outputs {
            paths.push(CombPath::ValidToValid { from: i, to: o });
        }
        for &j in &ports.inputs {
            paths.push(CombPath::ValidToReady { from: i, to: j });
        }
    }
    for &o in &ports.outputs {
        for &p in &ports.outputs {
            paths.push(CombPath::ReadyToValid {
                from: o,
                to: p,
                damped: false,
            });
        }
        for &i in &ports.inputs {
            paths.push(CombPath::ReadyToReady { from: o, to: i });
        }
    }
    paths
}

/// A snapshot of one storage slot inside a component, for trace rendering.
///
/// The Figure 5 reproduction prints, per cycle, the occupant of every MEB
/// register (per-thread mains plus the shared auxiliary slot).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotView {
    /// Slot name, e.g. `"main[0]"`, `"shared"`, `"eb[1].aux"`.
    pub name: String,
    /// `Some((thread, label))` when the slot holds a token.
    pub occupant: Option<(usize, String)>,
}

impl SlotView {
    /// An occupied slot.
    pub fn full(name: impl Into<String>, thread: usize, label: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            occupant: Some((thread, label.into())),
        }
    }

    /// An empty slot.
    pub fn empty(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            occupant: None,
        }
    }
}

/// Dense label for one primitive op class, reported by
/// [`Component::op_kind`]: the axis of the per-op eval counters in
/// [`KernelStats`](crate::KernelStats) and the node class of a
/// [`NetlistGraph`](crate::NetlistGraph). One variant per `IrNodeKind`
/// primitive; `Custom` covers every other component.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FusedOpKind {
    /// Token source.
    Source,
    /// Token sink.
    Sink,
    /// Single-thread elastic buffer.
    Eb,
    /// Full MEB (`2·S` slots).
    MebFull,
    /// Reduced MEB (`S + 1` slots).
    MebReduced,
    /// FIFO MEB.
    MebFifo,
    /// M-Fork.
    Fork,
    /// M-Join.
    Join,
    /// M-Branch.
    Branch,
    /// M-Merge.
    Merge,
    /// Thread barrier.
    Barrier,
    /// Variable-latency unit.
    VarLatency,
    /// Stateless transform.
    Transform,
    /// Any other component (`IrNodeKind::Custom` nodes, user primitives).
    Custom,
}

impl FusedOpKind {
    /// Number of op classes (the length of the per-op counter array).
    pub const COUNT: usize = 14;

    /// Every op class, in counter-array order.
    pub const ALL: [FusedOpKind; FusedOpKind::COUNT] = [
        FusedOpKind::Source,
        FusedOpKind::Sink,
        FusedOpKind::Eb,
        FusedOpKind::MebFull,
        FusedOpKind::MebReduced,
        FusedOpKind::MebFifo,
        FusedOpKind::Fork,
        FusedOpKind::Join,
        FusedOpKind::Branch,
        FusedOpKind::Merge,
        FusedOpKind::Barrier,
        FusedOpKind::VarLatency,
        FusedOpKind::Transform,
        FusedOpKind::Custom,
    ];

    /// Short stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FusedOpKind::Source => "source",
            FusedOpKind::Sink => "sink",
            FusedOpKind::Eb => "eb",
            FusedOpKind::MebFull => "meb_full",
            FusedOpKind::MebReduced => "meb_reduced",
            FusedOpKind::MebFifo => "meb_fifo",
            FusedOpKind::Fork => "fork",
            FusedOpKind::Join => "join",
            FusedOpKind::Branch => "branch",
            FusedOpKind::Merge => "merge",
            FusedOpKind::Barrier => "barrier",
            FusedOpKind::VarLatency => "varlat",
            FusedOpKind::Transform => "transform",
            FusedOpKind::Custom => "custom",
        }
    }

    /// The Graphviz shape this class renders with: storage as a
    /// cylinder, routing as a diamond, synchronization as an octagon,
    /// testbench endpoints as ellipses and everything else as a box.
    pub fn dot_shape(self) -> &'static str {
        match self {
            FusedOpKind::Source | FusedOpKind::Sink => "ellipse",
            FusedOpKind::Eb
            | FusedOpKind::MebFull
            | FusedOpKind::MebReduced
            | FusedOpKind::MebFifo => "cylinder",
            FusedOpKind::Fork | FusedOpKind::Join | FusedOpKind::Branch | FusedOpKind::Merge => {
                "diamond"
            }
            FusedOpKind::Barrier => "octagon",
            FusedOpKind::VarLatency | FusedOpKind::Transform | FusedOpKind::Custom => "box",
        }
    }
}

/// A synchronous hardware component.
///
/// See the module documentation for the evaluation contract.
pub trait Component<T: Token>: Send {
    /// Instance name (unique names make traces and errors readable).
    fn name(&self) -> &str;

    /// The channels this component reads and drives.
    fn ports(&self) -> Ports;

    /// Combinational evaluation: drive `valid`/`data` on outputs and
    /// `ready` on inputs from registered state and current signals.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>);

    /// The combinational paths through this component — which same-cycle
    /// channel signals [`eval`](Component::eval) reads, and which signals
    /// it drives from them (see [`CombPath`]).
    ///
    /// The build-time scheduler uses the declarations to (a) reject true
    /// combinational handshake cycles at [`build`](crate::CircuitBuilder::build)
    /// time, (b) levelize the acyclic remainder into a rank order that
    /// settles in one sweep, and (c) wake a component only when a signal it
    /// declared actually changes.
    ///
    /// The default is [`conservative_paths`] — all paths combinational in
    /// both directions. Register-cut primitives (an elastic buffer cuts
    /// *every* handshake path; a MEB's `ready` comes from registered
    /// occupancy) should override this to declare exactly the paths their
    /// `eval` implements. The declarations must be *complete*: every
    /// channel signal `eval` reads must appear as a `from` in some path.
    fn comb_paths(&self) -> Vec<CombPath> {
        conservative_paths(&self.ports())
    }

    /// Rising clock edge: observe the settled handshakes and update
    /// internal registers. A fault found here (a protocol violation, a
    /// token the component cannot process) is reported with
    /// [`TickCtx::fault`], which the kernel turns into
    /// [`SimError::Component`](crate::SimError::Component) — the typed
    /// path replacing in-component `panic!`s.
    fn tick(&mut self, ctx: &TickCtx<'_, T>);

    /// Rewinds the component to its freshly built *empty* state so an
    /// elaborated circuit can be reused for another run
    /// ([`Circuit::reset`](crate::Circuit::reset)).
    ///
    /// Returns `true` when the component supports resetting; the default
    /// `false` makes [`Circuit::reset`](crate::Circuit::reset) fail with
    /// [`SimError::ResetUnsupported`](crate::SimError::ResetUnsupported)
    /// naming this component, so custom components that never opted in
    /// stay safe. Implementations rewind occupancy and policy state —
    /// stored tokens, FSMs, arbiter/rotation pointers, RNG streams —
    /// while configuration (ports, names, ready policies, latency models,
    /// transforms) persists. Tokens pre-loaded through `with_initial`-style
    /// constructors are **not** restored: reset means *empty*, and sweep
    /// jobs re-seed their own tokens.
    fn reset(&mut self) -> bool {
        false
    }

    /// Optional view of internal storage for trace rendering.
    fn slots(&self) -> Vec<SlotView> {
        Vec::new()
    }

    /// The earliest cycle (strictly after `now`) at which this component
    /// could spontaneously change its outputs while the network is idle.
    ///
    /// Used by the quiescence fast-path; see [`NextEvent`]. The default is
    /// the conservative [`NextEvent::EveryCycle`], which keeps unknown
    /// components correct at the cost of disabling the fast-path. Purely
    /// reactive components should return [`NextEvent::Idle`]; time-driven
    /// ones should report their next deadline with [`NextEvent::At`].
    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::EveryCycle
    }

    /// Op class under which the settle loop tallies this component's
    /// evaluations ([`KernelStats::fused_op_evals`](crate::KernelStats)),
    /// and which picks its shape in an extracted netlist
    /// ([`FusedOpKind::dot_shape`]). Read once at
    /// [`build`](crate::CircuitBuilder::build); the shipped primitives
    /// override it, everything else counts as [`FusedOpKind::Custom`].
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Custom
    }

    /// Upcast for typed access via [`Circuit::get`](crate::Circuit::get).
    ///
    /// Implement as `fn as_any(&self) -> &dyn Any { self }` (the
    /// [`impl_as_any!`](crate::impl_as_any) macro writes both upcasts).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for typed access via
    /// [`Circuit::get_mut`](crate::Circuit::get_mut).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Writes the two [`Component`] upcast methods (`as_any`, `as_any_mut`)
/// inside an `impl Component<T> for …` block.
///
/// # Examples
///
/// ```
/// use elastic_sim::{impl_as_any, Component, EvalCtx, TickCtx, Ports};
///
/// struct Null;
/// impl Component<u64> for Null {
///     fn name(&self) -> &str { "null" }
///     fn ports(&self) -> Ports { Ports::default() }
///     fn eval(&mut self, _ctx: &mut EvalCtx<'_, u64>) {}
///     fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
///     impl_as_any!();
/// }
/// ```
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_view_constructors() {
        let s = SlotView::full("main[1]", 1, "B3");
        assert_eq!(s.occupant, Some((1, "B3".to_string())));
        let e = SlotView::empty("shared");
        assert_eq!(e.occupant, None);
        assert_eq!(e.name, "shared");
    }

    #[test]
    fn ports_collects_channels() {
        let p = Ports::new([ChannelId(0)], [ChannelId(1), ChannelId(2)]);
        assert_eq!(p.inputs.len(), 1);
        assert_eq!(p.outputs.len(), 2);
    }

    #[test]
    fn conservative_paths_cover_all_directions() {
        let p = Ports::new([ChannelId(0)], [ChannelId(1), ChannelId(2)]);
        let paths = conservative_paths(&p);
        // 1 input x 2 outputs V->V, 1x1 V->R, 2x2 R->V, 2x1 R->R.
        assert_eq!(paths.len(), 2 + 1 + 4 + 2);
        assert!(paths.contains(&CombPath::ValidToValid {
            from: ChannelId(0),
            to: ChannelId(2),
        }));
        assert!(paths.contains(&CombPath::ValidToReady {
            from: ChannelId(0),
            to: ChannelId(0),
        }));
        // Conservative ready->valid paths are strict, never damped.
        assert!(paths.contains(&CombPath::ReadyToValid {
            from: ChannelId(1),
            to: ChannelId(1),
            damped: false,
        }));
        assert!(paths.contains(&CombPath::ReadyToReady {
            from: ChannelId(2),
            to: ChannelId(0),
        }));
    }
}
