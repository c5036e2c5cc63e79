//! The structural elastic netlist IR.
//!
//! [`ElasticIr`] is one description of an elastic circuit that feeds
//! three consumers:
//!
//! * **simulation** — [`ElasticIr::elaborate`] lowers the IR onto
//!   [`elastic_core`] primitives and builds a runnable
//!   [`elastic_sim::Circuit`];
//! * **cost** — the `elastic-cost` crate walks the same nodes (via
//!   [`IrNodeTag`], channel widths and [`CostHint`]s) to produce a
//!   Table I area inventory;
//! * **DOT** — [`ElasticIr::to_netlist`]/[`ElasticIr::to_dot`] render the
//!   graph *before* elaboration, with the same shapes as
//!   [`elastic_sim::NetlistGraph`] extraction from a built
//!   circuit.
//!
//! Nodes are the paper's primitive set (EB, MEB, fork, join, branch,
//! merge, barrier, source, sink, variable-latency server, combinational
//! transform) plus an escape hatch ([`IrNodeKind::Custom`]) for
//! design-specific stages such as the processor's fetcher. Channels are
//! annotated with a thread count and an optional datapath width (bits) —
//! the width drives the cost model, which is why MEB-adjacent channels
//! should carry one.
//!
//! Structural invariants (one driver and one reader per channel, uniform
//! thread counts across a node's ports, primitive arities, and an
//! EB/MEB/latency-unit cut on every feedback cycle) are *not* enforced at
//! construction time; run the lint passes in [`crate::passes`] before
//! elaboration to get typed errors instead of build-time failures.

use std::fmt::Write as _;

use elastic_core::{ArbiterKind, Barrier, Branch, ElasticBuffer, Fork, Join, MebKind, Merge};
use elastic_sim::{
    BuildError, ChannelId, Circuit, CircuitBuilder, Component, Fnv1a, FusedOpKind, LatencyModel,
    NetlistEdge, NetlistGraph, ProtocolError, ReadyPolicy, Sink, Source, Token, Transform,
    VarLatency,
};

/// Handle to a channel of an [`ElasticIr`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IrChannelId(pub(crate) usize);

impl IrChannelId {
    /// Raw index (also the index into
    /// [`Elaborated::channel_ids`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a node of an [`ElasticIr`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IrNodeId(pub(crate) usize);

impl IrNodeId {
    /// Raw index into the IR's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A point-to-point elastic channel of the IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IrChannel {
    /// Channel name (becomes the simulated channel's name verbatim).
    pub name: String,
    /// Thread count `S` of the channel's valid/ready handshake.
    pub threads: usize,
    /// Datapath width in bits, if known. Drives the cost model
    /// (`Inventory::from_ir` sizes a MEB by its port width); `None` means
    /// "not accounted" and costs as zero bits.
    pub width: Option<usize>,
}

/// One itemized non-structural cost contribution attached to a node —
/// the combinational logic the structural walk cannot see (an ALU, an
/// unrolled hash step, a decoder). Same shape as a
/// `CostItem` row: `count` instances of `les_each` logic elements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CostHint {
    /// Row label in the rendered inventory.
    pub name: String,
    /// Instance count.
    pub count: usize,
    /// Logic elements per instance.
    pub les_each: usize,
}

/// Routing function of a [`IrNodeKind::Fork`]: the bitmask of outputs
/// that receive each token (bit `o` = output `o`; see
/// [`Fork::with_route`](elastic_core::Fork::with_route)).
pub type RouteFn<T> = Box<dyn Fn(&T) -> u64 + Send>;
/// N-ary combine function of a [`IrNodeKind::Join`].
pub type CombineFn<T> = Box<dyn Fn(&[&T]) -> T + Send>;
/// Branch predicate of a [`IrNodeKind::Branch`].
pub type CondFn<T> = Box<dyn Fn(&T) -> bool + Send>;
/// Unary token map of a [`IrNodeKind::Transform`] or a variable-latency
/// server's transform.
pub type MapFn<T> = Box<dyn Fn(&T) -> T + Send>;
/// Barrier release action (receives the 1-based release count).
pub type ReleaseFn = Box<dyn FnMut(u64) + Send>;
/// Factory of a [`IrNodeKind::Custom`] component: receives the
/// elaborated input and output [`ChannelId`]s (in port order) and returns
/// the built component.
pub type BuildFn<T> = Box<dyn FnOnce(&[ChannelId], &[ChannelId]) -> Box<dyn Component<T>> + Send>;

/// The typed node set of the IR — the paper's primitives plus testbench
/// endpoints and a custom escape hatch.
pub enum IrNodeKind<T: Token> {
    /// Token entry ([`Source`]). No inputs, one output.
    Source,
    /// Token exit ([`Sink`]). One input, no outputs.
    Sink {
        /// Record consumed tokens for inspection.
        capture: bool,
        /// Backpressure behaviour.
        policy: ReadyPolicy,
    },
    /// Single-thread elastic buffer (paper Sec. II). One input, one
    /// output; the protocol lint requires a 1-thread channel.
    Eb,
    /// Multithreaded elastic buffer (paper Sec. III). One input, one
    /// output.
    Meb {
        /// Microarchitecture (full / reduced / FIFO ablation). The
        /// meb-substitution pass rewrites this field.
        kind: MebKind,
        /// Output arbitration policy.
        arbiter: ArbiterKind,
        /// `(thread, token)` pairs present before the first cycle.
        initial: Vec<(usize, T)>,
        /// `true` when inserted by a constructor (the dataflow builder's
        /// auto-buffers, the processor's pipeline registers) rather than
        /// placed by the designer — the scope of
        /// [`MebTarget::Auto`](crate::passes::MebTarget::Auto).
        auto: bool,
    },
    /// Eager M-Fork: replicate one input to N outputs. One input, ≥ 2
    /// outputs.
    Fork {
        /// Optional per-token routing mask (a routing fork).
        route: Option<RouteFn<T>>,
    },
    /// M-Join: combine N inputs into one output. ≥ 2 inputs, one output.
    Join {
        /// Combine function (one token per input, in port order).
        combine: CombineFn<T>,
    },
    /// M-Branch: conditional two-way routing. One input; output 0 is
    /// taken, output 1 is not-taken.
    Branch {
        /// Routing predicate.
        cond: CondFn<T>,
    },
    /// M-Merge: N-way reconvergence. ≥ 2 inputs, one output.
    Merge,
    /// Sense-reversing thread barrier. One input, one output.
    Barrier {
        /// Participation mask (`None` = every thread).
        participants: Option<Vec<bool>>,
        /// Invoked at the clock edge of every release.
        on_release: Option<ReleaseFn>,
    },
    /// Variable-latency server. One input, one output.
    VarLatency {
        /// Concurrent in-flight tokens.
        servers: usize,
        /// Latency distribution.
        model: LatencyModel<T>,
        /// Optional result transform applied on completion.
        transform: Option<MapFn<T>>,
    },
    /// Pure combinational unit. One input, one output.
    Transform {
        /// The computed function.
        f: MapFn<T>,
    },
    /// A design-specific component (e.g. the processor's fetcher). Port
    /// arities are whatever the factory expects; the protocol lint checks
    /// thread-count consistency only.
    Custom {
        /// Component factory, consumed at elaboration.
        build: BuildFn<T>,
        /// Whether the component registers every handshake path — i.e.
        /// whether it is a legal cut point for the cycle-cover lint (a
        /// variable-latency memory unit is; a combinational decode stage
        /// is not).
        cuts: bool,
    },
}

/// Payload-free classification of a node, for passes and cost/DOT
/// consumers that do not need the closures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrNodeTag {
    /// [`IrNodeKind::Source`].
    Source,
    /// [`IrNodeKind::Sink`].
    Sink,
    /// [`IrNodeKind::Eb`].
    Eb,
    /// [`IrNodeKind::Meb`], carrying its current microarchitecture.
    Meb(MebKind),
    /// [`IrNodeKind::Fork`].
    Fork,
    /// [`IrNodeKind::Join`].
    Join,
    /// [`IrNodeKind::Branch`].
    Branch,
    /// [`IrNodeKind::Merge`].
    Merge,
    /// [`IrNodeKind::Barrier`].
    Barrier,
    /// [`IrNodeKind::VarLatency`].
    VarLatency,
    /// [`IrNodeKind::Transform`].
    Transform,
    /// [`IrNodeKind::Custom`], carrying its cut-point declaration.
    Custom {
        /// Whether the component cuts combinational cycles.
        cuts: bool,
    },
}

impl IrNodeTag {
    /// Whether this node registers every handshake path and therefore
    /// legally cuts a feedback cycle (the EB/MEB cut of paper Fig. 3;
    /// variable-latency servers also register their handshake).
    pub fn cuts_cycles(self) -> bool {
        matches!(
            self,
            IrNodeTag::Eb
                | IrNodeTag::Meb(_)
                | IrNodeTag::VarLatency
                | IrNodeTag::Custom { cuts: true }
        )
    }

    /// Whether a node of this kind may have `inputs` input and `outputs`
    /// output ports: a source 0 → 1, a sink 1 → 0, a fork 1 → ≥ 2, a
    /// join or merge ≥ 2 → 1, a branch 1 → 2 and every other primitive
    /// 1 → 1. A custom node chooses its own ports. The protocol lint and
    /// [`ElasticIr::elaborate`] both apply this rule.
    pub(crate) fn fits_ports(self, inputs: usize, outputs: usize) -> bool {
        match self {
            IrNodeTag::Source => inputs == 0 && outputs == 1,
            IrNodeTag::Sink => inputs == 1 && outputs == 0,
            IrNodeTag::Eb
            | IrNodeTag::Meb(_)
            | IrNodeTag::Barrier
            | IrNodeTag::VarLatency
            | IrNodeTag::Transform => inputs == 1 && outputs == 1,
            IrNodeTag::Fork => inputs == 1 && outputs >= 2,
            IrNodeTag::Join | IrNodeTag::Merge => inputs >= 2 && outputs == 1,
            IrNodeTag::Branch => inputs == 1 && outputs == 2,
            IrNodeTag::Custom { .. } => true,
        }
    }

    /// The op class of the component this node elaborates to
    /// ([`Component::op_kind`]), which is also the class it renders as
    /// in DOT.
    pub fn op_kind(self) -> FusedOpKind {
        match self {
            IrNodeTag::Source => FusedOpKind::Source,
            IrNodeTag::Sink => FusedOpKind::Sink,
            IrNodeTag::Eb => FusedOpKind::Eb,
            IrNodeTag::Meb(MebKind::Full) => FusedOpKind::MebFull,
            IrNodeTag::Meb(MebKind::Reduced) => FusedOpKind::MebReduced,
            IrNodeTag::Meb(MebKind::Fifo { .. }) => FusedOpKind::MebFifo,
            IrNodeTag::Fork => FusedOpKind::Fork,
            IrNodeTag::Join => FusedOpKind::Join,
            IrNodeTag::Branch => FusedOpKind::Branch,
            IrNodeTag::Merge => FusedOpKind::Merge,
            IrNodeTag::Barrier => FusedOpKind::Barrier,
            IrNodeTag::VarLatency => FusedOpKind::VarLatency,
            IrNodeTag::Transform => FusedOpKind::Transform,
            IrNodeTag::Custom { .. } => FusedOpKind::Custom,
        }
    }
}

/// A node of the IR: a named primitive instance wired to channels, with
/// optional cost hints for its combinational payload.
pub struct IrNode<T: Token> {
    name: String,
    kind: IrNodeKind<T>,
    inputs: Vec<IrChannelId>,
    outputs: Vec<IrChannelId>,
    cost_hints: Vec<CostHint>,
}

impl<T: Token> IrNode<T> {
    /// Instance name (unique names make lints and traces readable).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kind, with payload.
    pub fn kind(&self) -> &IrNodeKind<T> {
        &self.kind
    }

    pub(crate) fn kind_mut(&mut self) -> &mut IrNodeKind<T> {
        &mut self.kind
    }

    /// Payload-free classification.
    pub fn tag(&self) -> IrNodeTag {
        match &self.kind {
            IrNodeKind::Source => IrNodeTag::Source,
            IrNodeKind::Sink { .. } => IrNodeTag::Sink,
            IrNodeKind::Eb => IrNodeTag::Eb,
            IrNodeKind::Meb { kind, .. } => IrNodeTag::Meb(*kind),
            IrNodeKind::Fork { .. } => IrNodeTag::Fork,
            IrNodeKind::Join { .. } => IrNodeTag::Join,
            IrNodeKind::Branch { .. } => IrNodeTag::Branch,
            IrNodeKind::Merge => IrNodeTag::Merge,
            IrNodeKind::Barrier { .. } => IrNodeTag::Barrier,
            IrNodeKind::VarLatency { .. } => IrNodeTag::VarLatency,
            IrNodeKind::Transform { .. } => IrNodeTag::Transform,
            IrNodeKind::Custom { cuts, .. } => IrNodeTag::Custom { cuts: *cuts },
        }
    }

    /// Input channels, in port order.
    pub fn inputs(&self) -> &[IrChannelId] {
        &self.inputs
    }

    /// Output channels, in port order.
    pub fn outputs(&self) -> &[IrChannelId] {
        &self.outputs
    }

    pub(crate) fn inputs_mut(&mut self) -> &mut [IrChannelId] {
        &mut self.inputs
    }

    pub(crate) fn outputs_mut(&mut self) -> &mut [IrChannelId] {
        &mut self.outputs
    }

    /// Cost hints attached to this node.
    pub fn cost_hints(&self) -> &[CostHint] {
        &self.cost_hints
    }
}

/// Errors raised while lowering an IR onto the simulator.
///
/// The lint passes catch the structural problems *before* elaboration;
/// these errors are what remains: a node wired to an impossible port
/// count, excess initial tokens in a MEB, or a netlist the
/// [`CircuitBuilder`] rejects.
#[derive(Debug)]
pub enum IrError {
    /// A node's port count does not match its kind (e.g. a branch with
    /// one output). The protocol lint reports this as a typed
    /// [`PassError`](crate::passes::PassError) if run first.
    BadPorts {
        /// Offending node.
        node: String,
        /// Declared input count.
        inputs: usize,
        /// Declared output count.
        outputs: usize,
    },
    /// A node's ports disagree on the thread count (or an EB sits on a
    /// multithreaded channel) — the protocol lint's check. `Custom` nodes
    /// are exempt: their builders choose their own widths.
    ThreadMismatch {
        /// Offending node.
        node: String,
        /// The channel whose thread count disagrees.
        channel: String,
        /// Thread count expected from the node's first port (1 for an EB).
        expected: usize,
        /// Thread count found on `channel`.
        got: usize,
    },
    /// A barrier's participant mask does not fit it: its length is not
    /// the barrier's thread count, or no thread participates.
    BadParticipants {
        /// Offending node.
        node: String,
        /// Thread count of the barrier.
        threads: usize,
        /// Length of the participant mask.
        len: usize,
        /// Participating threads in the mask.
        participants: usize,
    },
    /// A variable-latency node's uniform latency range is empty
    /// (`min > max`), so it could never draw a latency.
    BadLatency {
        /// Offending node.
        node: String,
        /// Lower end of the range.
        min: u32,
        /// Upper end of the range.
        max: u32,
    },
    /// A variable-latency node has no server slot, so it could never
    /// accept a token.
    NoServers {
        /// Offending node.
        node: String,
    },
    /// A MEB's initial tokens exceed its per-thread capacity or name a
    /// thread it does not have.
    Protocol(ProtocolError),
    /// The lowered netlist failed structural validation or rank
    /// scheduling (see [`BuildError`]).
    Build(BuildError),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::BadPorts {
                node,
                inputs,
                outputs,
            } => write!(
                f,
                "node `{node}` is wired to {inputs} input(s) and {outputs} output(s), \
                 which its kind does not support"
            ),
            IrError::ThreadMismatch {
                node,
                channel,
                expected,
                got,
            } => write!(
                f,
                "node `{node}` expects {expected} thread(s) but channel `{channel}` \
                 carries {got}"
            ),
            IrError::BadParticipants {
                node,
                threads,
                len,
                participants,
            } => write!(
                f,
                "barrier `{node}` has {threads} thread(s) but a participant mask of \
                 length {len} with {participants} participant(s)"
            ),
            IrError::BadLatency { node, min, max } => write!(
                f,
                "variable-latency node `{node}` has the empty latency range {min}..={max}"
            ),
            IrError::NoServers { node } => {
                write!(f, "variable-latency node `{node}` has no server slot")
            }
            IrError::Protocol(e) => write!(f, "{e}"),
            IrError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IrError::Protocol(e) => Some(e),
            IrError::Build(e) => Some(e),
            IrError::BadPorts { .. }
            | IrError::ThreadMismatch { .. }
            | IrError::BadParticipants { .. }
            | IrError::BadLatency { .. }
            | IrError::NoServers { .. } => None,
        }
    }
}

/// The result of [`ElasticIr::elaborate`]: the runnable circuit plus the
/// mapping from IR channels to simulator channels.
pub struct Elaborated<T: Token> {
    /// The built circuit.
    pub circuit: Circuit<T>,
    /// `channel_ids[i]` is the simulator channel elaborated from the IR
    /// channel with [`IrChannelId::index`] `i`. (Simulator [`ChannelId`]s
    /// are not constructible by hand, so this vector is the only bridge.)
    pub channel_ids: Vec<ChannelId>,
}

impl<T: Token> Elaborated<T> {
    /// The simulator channel elaborated from IR channel `ch`.
    pub fn channel(&self, ch: IrChannelId) -> ChannelId {
        self.channel_ids[ch.0]
    }
}

/// A structural elastic netlist: typed nodes connected by
/// thread/width-annotated channels. See the [module docs](self).
pub struct ElasticIr<T: Token> {
    channels: Vec<IrChannel>,
    nodes: Vec<IrNode<T>>,
}

impl<T: Token> Default for ElasticIr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Token> ElasticIr<T> {
    /// An empty IR.
    pub fn new() -> Self {
        Self {
            channels: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Declares a channel supporting `threads` threads, with no width
    /// annotation.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn channel(&mut self, name: impl Into<String>, threads: usize) -> IrChannelId {
        assert!(threads > 0, "a channel must support at least one thread");
        let id = IrChannelId(self.channels.len());
        self.channels.push(IrChannel {
            name: name.into(),
            threads,
            width: None,
        });
        id
    }

    /// Declares a channel with a datapath width annotation (bits).
    pub fn channel_with_width(
        &mut self,
        name: impl Into<String>,
        threads: usize,
        width: usize,
    ) -> IrChannelId {
        let id = self.channel(name, threads);
        self.channels[id.0].width = Some(width);
        id
    }

    /// Annotates (or re-annotates) a channel's datapath width.
    pub fn set_width(&mut self, ch: IrChannelId, width: usize) {
        self.channels[ch.0].width = Some(width);
    }

    /// Adds a node wired to the given channels (port order preserved).
    ///
    /// # Panics
    ///
    /// Panics if any channel handle is out of range (belongs to another
    /// IR).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: IrNodeKind<T>,
        inputs: Vec<IrChannelId>,
        outputs: Vec<IrChannelId>,
    ) -> IrNodeId {
        for ch in inputs.iter().chain(outputs.iter()) {
            assert!(ch.0 < self.channels.len(), "channel belongs to another IR");
        }
        let id = IrNodeId(self.nodes.len());
        self.nodes.push(IrNode {
            name: name.into(),
            kind,
            inputs,
            outputs,
            cost_hints: Vec::new(),
        });
        id
    }

    /// Finishes an IR written by the dataflow builder. Drops the
    /// placeholder `sources` its loopbacks closed, with the channels they
    /// drive (nothing reads those any more), renumbering what remains.
    /// Then moves the `auto` MEBs to the front, in the order they were
    /// added.
    ///
    /// Node order is behaviour: ties in the rank schedule keep insertion
    /// order, and the GCD loop's captures change with it. Buffers first
    /// is the order the builder has always elaborated its graphs in
    /// (`tests/ir_roundtrip.rs` pins it).
    pub(crate) fn finish_dataflow(&mut self, sources: &[IrNodeId]) {
        let mut dead = vec![false; self.channels.len()];
        for id in sources {
            for ch in &self.nodes[id.0].outputs {
                dead[ch.0] = true;
            }
        }
        let mut renumbered = Vec::with_capacity(dead.len());
        let mut next = 0;
        for &d in &dead {
            renumbered.push(next);
            next += usize::from(!d);
        }
        self.channels = std::mem::take(&mut self.channels)
            .into_iter()
            .zip(&dead)
            .filter_map(|(ch, &d)| (!d).then_some(ch))
            .collect();
        self.nodes = std::mem::take(&mut self.nodes)
            .into_iter()
            .enumerate()
            .filter_map(|(i, node)| (!sources.contains(&IrNodeId(i))).then_some(node))
            .collect();
        for node in &mut self.nodes {
            for ch in node.inputs.iter_mut().chain(&mut node.outputs) {
                debug_assert!(!dead[ch.0], "a dropped channel is still read");
                ch.0 = renumbered[ch.0];
            }
        }
        // A stable sort: both groups keep their insertion order.
        self.nodes
            .sort_by_key(|n| !matches!(n.kind, IrNodeKind::Meb { auto: true, .. }));
    }

    /// Attaches a cost hint to a node (see [`CostHint`]).
    pub fn add_cost_hint(
        &mut self,
        node: IrNodeId,
        name: impl Into<String>,
        count: usize,
        les_each: usize,
    ) {
        self.nodes[node.0].cost_hints.push(CostHint {
            name: name.into(),
            count,
            les_each,
        });
    }

    /// A stable 64-bit FNV-1a digest of the netlist *structure*: channel
    /// names, thread counts and widths, plus node names, tags and port
    /// connectivity, all in index order. A MEB's behavioural payload —
    /// its microarchitecture (including a FIFO's depth), its arbiter and
    /// its initial `(thread, token)` occupancy — is hashed explicitly,
    /// so two IRs differing only in a buffer depth, arbitration policy
    /// or pre-loaded token can never collide: transforming passes mutate
    /// exactly these fields, and a collision would silently poison the
    /// [`SweepService`](elastic_sim::SweepService) campaign cache.
    /// Closures (sink policies, join combiners), the `auto` provenance
    /// flag and cost hints do not participate — two IRs with equal
    /// hashes elaborate behaviourally identical circuits.
    ///
    /// The digest is [`Fnv1a`] (not [`std::hash::Hash`]-based) so it is
    /// stable across processes and Rust versions, making it usable as the
    /// IR component of a [`campaign_key`](elastic_sim::campaign_key) for
    /// memoized sweeps.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.channels.len() as u64);
        for ch in &self.channels {
            h.write(ch.name.as_bytes());
            h.write(&[0xFF]); // name terminator: ("ab","c") != ("a","bc")
            h.write_u64(ch.threads as u64);
            h.write_u64(ch.width.map_or(u64::MAX, |w| w as u64));
        }
        h.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            h.write(node.name().as_bytes());
            h.write(&[0xFF]);
            // Tag names are part of the public API; Debug is stable here.
            // `Fnv1a` is a `fmt::Write` that never fails: the renderings
            // below go straight into the digest, with no `String` built.
            let _ = write!(h, "{:?}", node.tag());
            h.write(&[0xFF]);
            if let IrNodeKind::Meb {
                kind,
                arbiter,
                initial,
                ..
            } = node.kind()
            {
                match kind {
                    MebKind::Full => h.write_u64(1),
                    MebKind::Reduced => h.write_u64(2),
                    MebKind::Fifo { depth } => {
                        h.write_u64(3);
                        h.write_u64(*depth as u64);
                    }
                }
                let _ = write!(h, "{arbiter:?}");
                h.write(&[0xFF]);
                h.write_u64(initial.len() as u64);
                for (thread, token) in initial {
                    h.write_u64(*thread as u64);
                    // Tokens are `Debug`-bounded; their rendering is the
                    // only process-stable identity available for them.
                    let _ = write!(h, "{token:?}");
                    h.write(&[0xFF]);
                }
            }
            h.write_u64(node.inputs().len() as u64);
            for inp in node.inputs() {
                h.write_u64(inp.index() as u64);
            }
            h.write_u64(node.outputs().len() as u64);
            for out in node.outputs() {
                h.write_u64(out.index() as u64);
            }
        }
        h.finish()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A channel's annotation record.
    pub fn channel_info(&self, ch: IrChannelId) -> &IrChannel {
        &self.channels[ch.0]
    }

    /// Iterates over all channels (index order = [`IrChannelId::index`]).
    pub fn channels(&self) -> impl Iterator<Item = &IrChannel> {
        self.channels.iter()
    }

    /// A node by handle.
    pub fn node(&self, id: IrNodeId) -> &IrNode<T> {
        &self.nodes[id.0]
    }

    pub(crate) fn node_mut(&mut self, id: IrNodeId) -> &mut IrNode<T> {
        &mut self.nodes[id.0]
    }

    /// Iterates over all nodes (index order = [`IrNodeId::index`]).
    pub fn nodes(&self) -> impl Iterator<Item = &IrNode<T>> {
        self.nodes.iter()
    }

    /// The handles of all nodes, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = IrNodeId> {
        (0..self.nodes.len()).map(IrNodeId)
    }

    /// Finds a node by instance name.
    pub fn node_named(&self, name: &str) -> Option<IrNodeId> {
        self.nodes.iter().position(|n| n.name == name).map(IrNodeId)
    }

    /// Finds a channel by name (first match).
    pub fn channel_named(&self, name: &str) -> Option<IrChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(IrChannelId)
    }

    /// The node driving channel `ch` (first node listing it as an
    /// output), if any. Unique on a linted IR.
    pub fn driver_of(&self, ch: IrChannelId) -> Option<IrNodeId> {
        self.nodes
            .iter()
            .position(|n| n.outputs.contains(&ch))
            .map(IrNodeId)
    }

    /// The node reading channel `ch` (first node listing it as an
    /// input), if any. Unique on a linted IR.
    pub fn reader_of(&self, ch: IrChannelId) -> Option<IrNodeId> {
        self.nodes
            .iter()
            .position(|n| n.inputs.contains(&ch))
            .map(IrNodeId)
    }

    /// The effective datapath width of a node: the first width annotation
    /// among its output channels, then its input channels; `0` when
    /// nothing is annotated.
    pub fn node_width(&self, id: IrNodeId) -> usize {
        let node = &self.nodes[id.0];
        node.outputs
            .iter()
            .chain(node.inputs.iter())
            .find_map(|&ch| self.channels[ch.0].width)
            .unwrap_or(0)
    }

    /// The thread count a node operates on: its first output's (for
    /// sources) or first input's channel threads. Returns 1 for a node
    /// with no ports (which the protocol lint rejects).
    pub fn node_threads(&self, id: IrNodeId) -> usize {
        let node = &self.nodes[id.0];
        node.inputs
            .iter()
            .chain(node.outputs.iter())
            .map(|&ch| self.channels[ch.0].threads)
            .next()
            .unwrap_or(1)
    }

    /// The first port of `node` whose thread count differs from the
    /// node's, as `(channel, expected, got)`: all ports of a node carry
    /// its first port's thread count (an elastic circuit never changes
    /// `S` mid-node), except that a single-thread EB expects 1. The
    /// protocol lint and [`elaborate`](Self::elaborate) both apply it.
    pub(crate) fn thread_mismatch(&self, node: &IrNode<T>) -> Option<(IrChannelId, usize, usize)> {
        let mut ports = node.inputs.iter().chain(&node.outputs).copied();
        let first = ports.next()?;
        let expected = if node.tag() == IrNodeTag::Eb {
            1
        } else {
            self.channels[first.0].threads
        };
        std::iter::once(first)
            .chain(ports)
            .map(|ch| (ch, expected, self.channels[ch.0].threads))
            .find(|&(_, expected, got)| got != expected)
    }

    /// Extracts the structural graph of the IR — same shape as
    /// [`Circuit::netlist`](elastic_sim::Circuit::netlist) extraction
    /// from a built circuit, but available *before* (or instead of)
    /// elaboration. Channels missing a driver or reader are skipped
    /// (the protocol lint reports them).
    pub fn to_netlist(&self) -> NetlistGraph {
        let mut driver: Vec<Option<usize>> = vec![None; self.channels.len()];
        let mut reader: Vec<Option<usize>> = vec![None; self.channels.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for ch in &node.outputs {
                driver[ch.0].get_or_insert(i);
            }
            for ch in &node.inputs {
                reader[ch.0].get_or_insert(i);
            }
        }
        let components = self.nodes.iter().map(|n| n.name.clone()).collect();
        let kinds = self.nodes.iter().map(|n| n.tag().op_kind()).collect();
        let edges = self
            .channels
            .iter()
            .enumerate()
            .filter_map(|(ci, spec)| match (driver[ci], reader[ci]) {
                (Some(from), Some(to)) => Some(NetlistEdge {
                    channel: spec.name.clone(),
                    threads: spec.threads,
                    from,
                    to,
                }),
                _ => None,
            })
            .collect();
        NetlistGraph {
            components,
            kinds,
            edges,
        }
    }

    /// Renders the IR in Graphviz DOT syntax (see
    /// [`NetlistGraph::to_dot`]).
    pub fn to_dot(&self) -> String {
        self.to_netlist().to_dot()
    }

    /// Lowers the IR onto [`elastic_core`] primitives and builds the
    /// runnable circuit.
    ///
    /// Channels are created in IR order (so
    /// [`Elaborated::channel_ids`] is index-aligned), then components in
    /// node order; [`CircuitBuilder::build`] then validates and compiles
    /// the rank schedule.
    ///
    /// # Errors
    ///
    /// [`IrError::BadPorts`] when a node's wiring does not fit its kind,
    /// [`IrError::ThreadMismatch`] when a primitive's ports disagree on
    /// the thread count, [`IrError::BadParticipants`] for a barrier mask
    /// that does not fit, [`IrError::NoServers`] for a variable-latency
    /// node without a server slot, [`IrError::BadLatency`] for an empty
    /// uniform latency range, [`IrError::Protocol`] when a MEB's initial
    /// tokens overflow or name a missing thread, and [`IrError::Build`]
    /// for anything the circuit builder rejects (missing
    /// drivers/readers, combinational loops, …). Run the lint passes
    /// first for friendlier, earlier diagnostics.
    pub fn elaborate(self) -> Result<Elaborated<T>, IrError> {
        // The primitives commit whole handshake words, so a width
        // mismatch would otherwise surface as a panic mid-run.
        for node in self.nodes.iter() {
            if matches!(node.kind, IrNodeKind::Custom { .. }) {
                continue;
            }
            if let Some((ch, expected, got)) = self.thread_mismatch(node) {
                return Err(IrError::ThreadMismatch {
                    node: node.name.clone(),
                    channel: self.channels[ch.0].name.clone(),
                    expected,
                    got,
                });
            }
        }
        let Self {
            mut channels,
            nodes,
        } = self;
        let mut b = CircuitBuilder::<T>::new();
        // The names move into the builder; only the thread counts are
        // read after this.
        let channel_ids: Vec<ChannelId> = channels
            .iter_mut()
            .map(|c| b.channel(std::mem::take(&mut c.name), c.threads))
            .collect();
        let threads_of = |ports: &[IrChannelId]| channels[ports[0].0].threads;

        // Port buffers shared by every node; a primitive that keeps a port
        // list gets its own exact-size copy.
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for node in nodes {
            let (inputs, outputs) = (node.inputs.len(), node.outputs.len());
            if !node.tag().fits_ports(inputs, outputs) {
                return Err(IrError::BadPorts {
                    node: node.name,
                    inputs,
                    outputs,
                });
            }
            let name = node.name;
            ins.clear();
            ins.extend(node.inputs.iter().map(|c| channel_ids[c.0]));
            outs.clear();
            outs.extend(node.outputs.iter().map(|c| channel_ids[c.0]));
            match node.kind {
                IrNodeKind::Source => {
                    b.add(Source::<T>::new(name, outs[0], threads_of(&node.outputs)));
                }
                IrNodeKind::Sink { capture, policy } => {
                    let threads = threads_of(&node.inputs);
                    if capture {
                        b.add(Sink::<T>::with_capture(name, ins[0], threads, policy));
                    } else {
                        b.add(Sink::<T>::new(name, ins[0], threads, policy));
                    }
                }
                IrNodeKind::Eb => {
                    b.add(ElasticBuffer::<T>::new(name, ins[0], outs[0]));
                }
                IrNodeKind::Meb {
                    kind,
                    arbiter,
                    initial,
                    ..
                } => {
                    let threads = threads_of(&node.inputs);
                    let meb = kind
                        .build_initial::<T>(
                            name,
                            ins[0],
                            outs[0],
                            threads,
                            arbiter.build(),
                            initial,
                        )
                        .map_err(IrError::Protocol)?;
                    b.add_boxed(meb);
                }
                IrNodeKind::Fork { route } => {
                    let threads = threads_of(&node.inputs);
                    let mut fork = Fork::new(name, ins[0], outs.clone(), threads);
                    if let Some(f) = route {
                        fork = fork.with_route(f);
                    }
                    b.add(fork);
                }
                IrNodeKind::Join { combine } => {
                    let threads = threads_of(&node.inputs);
                    b.add(Join::new(name, ins.clone(), outs[0], threads, combine));
                }
                IrNodeKind::Branch { cond } => {
                    let threads = threads_of(&node.inputs);
                    b.add(Branch::new(name, ins[0], outs[0], outs[1], threads, cond));
                }
                IrNodeKind::Merge => {
                    let threads = threads_of(&node.inputs);
                    b.add(Merge::new(name, ins.clone(), outs[0], threads));
                }
                IrNodeKind::Barrier {
                    participants,
                    on_release,
                } => {
                    let threads = threads_of(&node.inputs);
                    if let Some(mask) = &participants {
                        let count = mask.iter().filter(|&&p| p).count();
                        if mask.len() != threads || count == 0 {
                            return Err(IrError::BadParticipants {
                                node: name,
                                threads,
                                len: mask.len(),
                                participants: count,
                            });
                        }
                    }
                    let mut bar = Barrier::new(name, ins[0], outs[0], threads);
                    if let Some(mask) = participants {
                        bar = bar.with_participants(mask);
                    }
                    if let Some(f) = on_release {
                        bar = bar.with_release_action(f);
                    }
                    b.add(bar);
                }
                IrNodeKind::VarLatency {
                    servers,
                    model,
                    transform,
                } => {
                    if servers == 0 {
                        return Err(IrError::NoServers { node: name });
                    }
                    if let LatencyModel::Uniform { min, max, .. } = model {
                        if min > max {
                            return Err(IrError::BadLatency {
                                node: name,
                                min,
                                max,
                            });
                        }
                    }
                    let threads = threads_of(&node.inputs);
                    let mut unit = VarLatency::new(name, ins[0], outs[0], threads, servers, model);
                    if let Some(f) = transform {
                        unit = unit.with_transform(f);
                    }
                    b.add(unit);
                }
                IrNodeKind::Transform { f } => {
                    let threads = threads_of(&node.inputs);
                    b.add(Transform::new(name, ins[0], outs[0], threads, f));
                }
                IrNodeKind::Custom { build, .. } => {
                    b.add_boxed(build(&ins, &outs));
                }
            }
        }

        let circuit = b.build().map_err(IrError::Build)?;
        Ok(Elaborated {
            circuit,
            channel_ids,
        })
    }
}

impl<T: Token> std::fmt::Debug for ElasticIr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticIr")
            .field("channels", &self.channels.len())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_sim::EvalMode;

    /// src → EB → capturing sink: the 1-thread baseline pipeline through
    /// the IR path.
    #[test]
    fn eb_pipeline_elaborates_and_runs() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 1);
        let b = ir.channel("b", 1);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("eb", IrNodeKind::Eb, vec![a], vec![b]);
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: true,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        let mut e = ir.elaborate().expect("elaborates");
        e.circuit.set_eval_mode(EvalMode::Exhaustive);
        let src: &mut Source<u64> = e.circuit.get_mut("src").expect("src");
        src.extend(0, [7, 8, 9]);
        e.circuit.run(10).expect("runs");
        let snk: &Sink<u64> = e.circuit.get("snk").expect("snk");
        assert_eq!(
            snk.captured(0).iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn structural_hash_tracks_structure_not_payload() {
        let build = |sink_policy: ReadyPolicy| {
            let mut ir = ElasticIr::<u64>::new();
            let a = ir.channel("a", 2);
            let b = ir.channel_with_width("b", 2, 64);
            ir.add("src", IrNodeKind::Source, vec![], vec![a]);
            ir.add("eb", IrNodeKind::Eb, vec![a], vec![b]);
            ir.add(
                "snk",
                IrNodeKind::Sink {
                    capture: true,
                    policy: sink_policy,
                },
                vec![b],
                vec![],
            );
            ir
        };
        let base = build(ReadyPolicy::Always).structural_hash();
        // Rebuilding identically reproduces the digest (stable key).
        assert_eq!(base, build(ReadyPolicy::Always).structural_hash());
        // Payload closures/policies are not structure.
        assert_eq!(
            base,
            build(ReadyPolicy::Random { p: 0.5, seed: 1 }).structural_hash()
        );
        // Structure changes move the digest.
        let mut renamed = build(ReadyPolicy::Always);
        renamed.set_width(IrChannelId(1), 32);
        assert_ne!(base, renamed.structural_hash());
        let mut extra = build(ReadyPolicy::Always);
        extra.channel("c", 4);
        assert_ne!(base, extra.structural_hash());
    }

    /// Regression: buffer microarchitecture is behaviour, not payload —
    /// two IRs differing only in MEB kind, FIFO depth, arbiter or
    /// initial tokens must never share a digest, or the sweep-campaign
    /// cache would serve stale results once transforming passes mutate
    /// those fields.
    #[test]
    fn structural_hash_covers_meb_kind_depth_and_initial_tokens() {
        let build = |kind: MebKind, arbiter: ArbiterKind, initial: Vec<(usize, u64)>| {
            let mut ir = ElasticIr::<u64>::new();
            let a = ir.channel("a", 2);
            let b = ir.channel_with_width("b", 2, 32);
            ir.add("src", IrNodeKind::Source, vec![], vec![a]);
            ir.add(
                "buf",
                IrNodeKind::Meb {
                    kind,
                    arbiter,
                    initial,
                    auto: false,
                },
                vec![a],
                vec![b],
            );
            ir.add(
                "snk",
                IrNodeKind::Sink {
                    capture: true,
                    policy: ReadyPolicy::Always,
                },
                vec![b],
                vec![],
            );
            ir.structural_hash()
        };
        let rr = ArbiterKind::RoundRobin;
        let base = build(MebKind::Fifo { depth: 2 }, rr, vec![]);
        // Rebuilding identically reproduces the digest.
        assert_eq!(base, build(MebKind::Fifo { depth: 2 }, rr, vec![]));
        // FIFO depth alone moves the digest (the historical collision).
        assert_ne!(base, build(MebKind::Fifo { depth: 4 }, rr, vec![]));
        // So does the microarchitecture…
        assert_ne!(base, build(MebKind::Full, rr, vec![]));
        assert_ne!(base, build(MebKind::Reduced, rr, vec![]));
        assert_ne!(
            build(MebKind::Full, rr, vec![]),
            build(MebKind::Reduced, rr, vec![])
        );
        // …the arbitration policy…
        assert_ne!(
            base,
            build(MebKind::Fifo { depth: 2 }, ArbiterKind::Fixed, vec![])
        );
        // …and pre-loaded initial tokens (count, slot and value).
        let with_initial = build(MebKind::Fifo { depth: 2 }, rr, vec![(0, 7)]);
        assert_ne!(base, with_initial);
        // The digest keys cached campaigns across processes: pinned.
        assert_eq!(with_initial, 0xd67a_cdd8_816f_00df);
        assert_ne!(
            with_initial,
            build(MebKind::Fifo { depth: 2 }, rr, vec![(1, 7)])
        );
        assert_ne!(
            with_initial,
            build(MebKind::Fifo { depth: 2 }, rr, vec![(0, 8)])
        );
    }

    #[test]
    fn bad_ports_are_reported_at_elaboration() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        // A branch with only one output is ill-formed.
        ir.add(
            "br",
            IrNodeKind::Branch {
                cond: Box::new(|_| true),
            },
            vec![a],
            vec![],
        );
        match ir.elaborate() {
            Err(IrError::BadPorts { node, .. }) => assert_eq!(node, "br"),
            other => panic!("unexpected: {:?}", other.map(|_| ())),
        }
    }

    /// src → `node` → capturing sink over `threads`-thread channels.
    fn one_node_ir(threads: usize, kind: IrNodeKind<u64>) -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", threads);
        let b = ir.channel("b", threads);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("node", kind, vec![a], vec![b]);
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: true,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        ir
    }

    #[test]
    fn malformed_barrier_masks_are_typed_errors() {
        for (mask, len, participants) in [
            (vec![true, false], 2, 1),
            (vec![true, true, true, true], 4, 4),
            (vec![false, false, false], 3, 0),
        ] {
            let ir = one_node_ir(
                3,
                IrNodeKind::Barrier {
                    participants: Some(mask),
                    on_release: None,
                },
            );
            match ir.elaborate() {
                Err(IrError::BadParticipants {
                    node,
                    threads: 3,
                    len: l,
                    participants: p,
                }) => assert_eq!((node.as_str(), l, p), ("node", len, participants)),
                other => panic!("mask {len}/{participants}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn inverted_latency_range_is_a_typed_error() {
        let uniform = |min, max| IrNodeKind::VarLatency {
            servers: 2,
            model: LatencyModel::Uniform { min, max, seed: 1 },
            transform: None,
        };
        match one_node_ir(2, uniform(3, 1)).elaborate() {
            Err(IrError::BadLatency {
                node,
                min: 3,
                max: 1,
            }) => assert_eq!(node, "node"),
            other => panic!("{:?}", other.map(|_| ())),
        }
        assert!(one_node_ir(2, uniform(2, 2)).elaborate().is_ok());
    }

    #[test]
    fn serverless_latency_unit_is_a_typed_error() {
        let unit = |servers| IrNodeKind::VarLatency {
            servers,
            model: LatencyModel::Fixed(2),
            transform: None,
        };
        match one_node_ir(2, unit(0)).elaborate() {
            Err(IrError::NoServers { node }) => assert_eq!(node, "node"),
            other => panic!("{:?}", other.map(|_| ())),
        }
        assert!(one_node_ir(2, unit(1)).elaborate().is_ok());
    }

    #[test]
    fn initial_token_on_a_missing_thread_is_a_typed_error() {
        for kind in [MebKind::Full, MebKind::Reduced, MebKind::Fifo { depth: 2 }] {
            let ir = one_node_ir(
                2,
                IrNodeKind::Meb {
                    kind,
                    arbiter: ArbiterKind::RoundRobin,
                    initial: vec![(0, 1), (2, 5)],
                    auto: false,
                },
            );
            match ir.elaborate() {
                Err(IrError::Protocol(ProtocolError::InitialTokenThread {
                    thread: 2,
                    threads: 2,
                })) => {}
                other => panic!("{kind}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn port_thread_mismatch_is_a_typed_error_except_on_custom_nodes() {
        let narrow_input = |kind: IrNodeKind<u64>| {
            let mut ir = ElasticIr::<u64>::new();
            let a = ir.channel("a", 2);
            let b = ir.channel("b", 4);
            ir.add("src", IrNodeKind::Source, vec![], vec![a]);
            ir.add("node", kind, vec![a], vec![b]);
            ir.add(
                "snk",
                IrNodeKind::Sink {
                    capture: false,
                    policy: ReadyPolicy::Always,
                },
                vec![b],
                vec![],
            );
            ir
        };
        let transform = IrNodeKind::Transform {
            f: Box::new(|v: &u64| v + 1),
        };
        match narrow_input(transform).elaborate() {
            Err(IrError::ThreadMismatch {
                node,
                channel,
                expected: 2,
                got: 4,
            }) => assert_eq!((node.as_str(), channel.as_str()), ("node", "b")),
            other => panic!("{:?}", other.map(|_| ())),
        }
        match one_node_ir(2, IrNodeKind::Eb).elaborate() {
            Err(IrError::ThreadMismatch {
                expected: 1,
                got: 2,
                ..
            }) => {}
            other => panic!("{:?}", other.map(|_| ())),
        }
        // A custom node's builder picks its own widths.
        let custom = IrNodeKind::Custom {
            build: Box::new(|ins: &[ChannelId], outs: &[ChannelId]| {
                Box::new(Transform::new("node", ins[0], outs[0], 2, |v: &u64| *v))
                    as Box<dyn Component<u64>>
            }),
            cuts: false,
        };
        assert!(narrow_input(custom).elaborate().is_ok());
    }

    #[test]
    fn to_netlist_matches_elaborated_structure() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel_with_width("b", 2, 64);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "buf",
            IrNodeKind::Meb {
                kind: MebKind::Reduced,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: false,
            },
            vec![a],
            vec![b],
        );
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        let pre = ir.to_netlist();
        assert_eq!(pre.components, vec!["src", "buf", "snk"]);
        assert_eq!(
            pre.kinds,
            vec![
                FusedOpKind::Source,
                FusedOpKind::MebReduced,
                FusedOpKind::Sink
            ]
        );
        assert_eq!(pre.channel_count(), 2);
        let dot = ir.to_dot();
        assert!(dot.contains("shape=cylinder"), "{dot}");

        // The same nodes and edges survive elaboration (the built circuit
        // permutes components into rank order, so compare as sets).
        let e = ir.elaborate().expect("elaborates");
        let post = e.circuit.netlist();
        let mut pre_names = pre.components.clone();
        let mut post_names = post.components.clone();
        pre_names.sort();
        post_names.sort();
        assert_eq!(pre_names, post_names);
        assert_eq!(pre.channel_count(), post.channel_count());
    }

    #[test]
    fn width_annotations_resolve_per_node() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel("b", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        let buf = ir.add(
            "buf",
            IrNodeKind::Meb {
                kind: MebKind::Full,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: false,
            },
            vec![a],
            vec![b],
        );
        assert_eq!(ir.node_width(buf), 0);
        ir.set_width(b, 32);
        assert_eq!(ir.node_width(buf), 32);
        assert_eq!(ir.node_threads(buf), 2);
        assert_eq!(ir.node(buf).tag(), IrNodeTag::Meb(MebKind::Full));
        assert!(ir.node(buf).tag().cuts_cycles());
        assert!(!IrNodeTag::Merge.cuts_cycles());
    }
}
