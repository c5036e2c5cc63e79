//! IR passes: rewrites and lints over [`ElasticIr`].
//!
//! A [`Pass`] either rewrites the IR (e.g. [`MebSubstitution`], which
//! retargets buffer microarchitectures) or lints it (e.g.
//! [`ProtocolLint`], [`CycleCoverLint`]), failing with a typed
//! [`PassError`] instead of letting the problem surface later as a
//! build-time string or a simulation deadlock. [`PassManager`] runs a
//! sequence of passes and collects one [`PassReport`] per pass.
//!
//! The canonical pipeline — what the MD5 and processor constructors run
//! before elaborating — is:
//!
//! 1. [`MebSubstitution`] — point the buffers at the chosen MEB
//!    microarchitecture;
//! 2. [`ProtocolLint`] — single driver/reader per channel, uniform
//!    thread counts across each node's ports, primitive arities;
//! 3. [`CycleCoverLint`] — every structural cycle must contain an
//!    EB/MEB/latency-unit cut (the static version of the rank
//!    scheduler's Tarjan check, reported before any component is built).
//!
//! [`DataflowBuilder::build_ir`](crate::DataflowBuilder::build_ir) runs
//! steps 2 and 3 ([`PassManager::lint_suite`]); its auto-inserted
//! buffers are reduced MEBs until a [`MebSubstitution::auto`] says
//! otherwise.

use crate::ir::{ElasticIr, IrChannelId, IrNode, IrNodeId, IrNodeKind, IrNodeTag};
use elastic_core::{ArbiterKind, MebKind};
use elastic_sim::{Adjacency, Token};

/// A typed diagnostic from a lint or rewrite pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PassError {
    /// A structural cycle with no EB/MEB/latency-unit cut: every
    /// handshake on it is combinational, so the circuit cannot be rank
    /// scheduled (and the hardware would oscillate).
    UnbufferedCycle {
        /// The nodes on the cycle, in traversal order.
        nodes: Vec<String>,
    },
    /// A node's ports disagree on the thread count (or an EB sits on a
    /// multithreaded channel).
    ThreadMismatch {
        /// Offending node.
        node: String,
        /// The channel whose thread count disagrees.
        channel: String,
        /// Thread count expected from the node's first port (or 1 for an
        /// EB).
        expected: usize,
        /// Thread count found on `channel`.
        got: usize,
    },
    /// A node's port count does not match its primitive kind.
    BadArity {
        /// Offending node.
        node: String,
        /// Declared input count.
        inputs: usize,
        /// Declared output count.
        outputs: usize,
    },
    /// A channel is driven by more than one node.
    MultipleDrivers {
        /// Offending channel.
        channel: String,
        /// All driving nodes.
        drivers: Vec<String>,
    },
    /// A channel is read by more than one node.
    MultipleReaders {
        /// Offending channel.
        channel: String,
        /// All reading nodes.
        readers: Vec<String>,
    },
    /// A channel has no driving node.
    NoDriver {
        /// Offending channel.
        channel: String,
    },
    /// A channel has no reading node.
    NoReader {
        /// Offending channel.
        channel: String,
    },
    /// A pass was pointed at a node that does not exist.
    NoSuchNode {
        /// The requested node name.
        node: String,
    },
    /// A MEB-targeted pass was pointed at a node of another kind.
    NotAMeb {
        /// Offending node.
        node: String,
    },
    /// A retiming move is not legal at the targeted buffer: the
    /// neighbour in the move direction is not a pure 1→1 `Transform`,
    /// the buffer holds initial tokens (which the transform would have
    /// to be applied to), or the move would uncover a feedback cycle.
    IllegalRetiming {
        /// The buffer the pass was pointed at.
        node: String,
        /// Why the move is rejected.
        reason: String,
    },
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::UnbufferedCycle { nodes } => {
                write!(
                    f,
                    "combinational loop with no EB/MEB cut: {}",
                    nodes.join(" -> ")
                )
            }
            PassError::ThreadMismatch {
                node,
                channel,
                expected,
                got,
            } => write!(
                f,
                "node `{node}` expects {expected} thread(s) but channel `{channel}` \
                 carries {got}"
            ),
            PassError::BadArity {
                node,
                inputs,
                outputs,
            } => write!(
                f,
                "node `{node}` is wired to {inputs} input(s) and {outputs} output(s), \
                 which its kind does not support"
            ),
            PassError::MultipleDrivers { channel, drivers } => write!(
                f,
                "channel `{channel}` has multiple drivers: {}",
                drivers.join(", ")
            ),
            PassError::MultipleReaders { channel, readers } => write!(
                f,
                "channel `{channel}` has multiple readers: {}",
                readers.join(", ")
            ),
            PassError::NoDriver { channel } => {
                write!(f, "channel `{channel}` has no driver")
            }
            PassError::NoReader { channel } => {
                write!(f, "channel `{channel}` has no reader")
            }
            PassError::NoSuchNode { node } => write!(f, "no node named `{node}`"),
            PassError::NotAMeb { node } => {
                write!(f, "node `{node}` is not a MEB; cannot substitute its kind")
            }
            PassError::IllegalRetiming { node, reason } => {
                write!(f, "cannot retime buffer `{node}`: {reason}")
            }
        }
    }
}

impl std::error::Error for PassError {}

/// Which way a retiming move shifts a buffer relative to token flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetimeDirection {
    /// Move the buffer downstream, across the transform *reading* its
    /// output.
    Forward,
    /// Move the buffer upstream, across the transform *driving* its
    /// input.
    Backward,
}

impl std::fmt::Display for RetimeDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetimeDirection::Forward => write!(f, "forward"),
            RetimeDirection::Backward => write!(f, "backward"),
        }
    }
}

/// One machine-readable structural change made by a transforming pass —
/// the diff record an optimizer (or the cost model's delta check, or the
/// DOT highlighter) consumes without re-walking the IR. Every variant
/// carries the thread count and datapath width the affected buffer costs
/// at, so `elastic-cost`'s `expected_les_delta` can predict the
/// re-derived inventory exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PassDelta {
    /// A buffer's microarchitecture was rewritten in place
    /// ([`MebSubstitution`], `MebDepthSizing`).
    Resized {
        /// The rewritten MEB node.
        node: String,
        /// Microarchitecture before the rewrite.
        from: MebKind,
        /// Microarchitecture after the rewrite.
        to: MebKind,
        /// Thread count the buffer is costed at.
        threads: usize,
        /// Datapath width (bits) the buffer is costed at.
        width: usize,
    },
    /// A new buffer node was inserted on a channel (`SlackMatching`).
    Inserted {
        /// The new MEB node's name.
        node: String,
        /// The channel the buffer was inserted on.
        channel: String,
        /// The inserted buffer's microarchitecture.
        kind: MebKind,
        /// Thread count the buffer is costed at.
        threads: usize,
        /// Datapath width (bits) the buffer is costed at.
        width: usize,
    },
    /// A buffer was moved across an adjacent transform (`Retiming`).
    Moved {
        /// The moved buffer node.
        node: String,
        /// The transform node it moved across.
        across: String,
        /// Move direction.
        direction: RetimeDirection,
        /// The buffer's microarchitecture (`None` for a single-thread
        /// EB).
        kind: Option<MebKind>,
        /// Thread count the buffer is costed at.
        threads: usize,
        /// Datapath width (bits) before the move.
        from_width: usize,
        /// Datapath width (bits) after the move.
        to_width: usize,
    },
}

/// What one pass did: how many nodes it rewrote, how many entities it
/// checked, and the structured diff of every rewrite.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PassReport {
    /// Pass name (see [`Pass::name`]).
    pub pass: String,
    /// Nodes rewritten (0 for pure lints).
    pub changed: usize,
    /// Entities (nodes or channels) inspected.
    pub checked: usize,
    /// Machine-readable record of each structural change, in application
    /// order (empty for lints and no-op rewrites).
    pub deltas: Vec<PassDelta>,
}

impl PassReport {
    /// A delta-free report (lints, counting-only rewrites).
    pub fn new(pass: impl Into<String>, changed: usize, checked: usize) -> Self {
        Self {
            pass: pass.into(),
            changed,
            checked,
            deltas: Vec::new(),
        }
    }

    /// Attaches the structured diff (builder style).
    #[must_use]
    pub fn with_deltas(mut self, deltas: Vec<PassDelta>) -> Self {
        self.deltas = deltas;
        self
    }
}

/// A rewrite or lint over an [`ElasticIr`].
pub trait Pass<T: Token> {
    /// Stable pass name, used in reports.
    fn name(&self) -> &'static str;
    /// Runs the pass, mutating the IR in place.
    ///
    /// # Errors
    ///
    /// Returns the first [`PassError`] found.
    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError>;
}

/// Runs a sequence of passes in order, stopping at the first error.
pub struct PassManager<T: Token> {
    passes: Vec<Box<dyn Pass<T>>>,
}

impl<T: Token> Default for PassManager<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Token> PassManager<T> {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self { passes: Vec::new() }
    }

    /// The standard lint suite (no rewrites): [`ProtocolLint`] then
    /// [`CycleCoverLint`].
    pub fn lint_suite() -> Self {
        Self::new().with(ProtocolLint).with(CycleCoverLint)
    }

    /// Appends a pass (builder style).
    pub fn with(mut self, pass: impl Pass<T> + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass<T> + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Runs every pass in order.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first [`PassError`].
    pub fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<Vec<PassReport>, PassError> {
        self.passes.iter_mut().map(|p| p.run(ir)).collect()
    }
}

/// Which MEB nodes a [`MebSubstitution`] rewrites.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MebTarget {
    /// Every MEB node.
    All,
    /// Only constructor-inserted MEBs (`auto: true`) — designer-placed
    /// buffers keep their explicit microarchitecture.
    Auto,
    /// The single MEB with this instance name.
    Named(String),
}

/// Rewrites MEB microarchitectures (full ↔ reduced ↔ FIFO ablation) per
/// node or globally.
///
/// This pass is how buffer choice reaches the netlist: the dataflow
/// builder and the processor constructor mark the buffers they insert
/// `auto`, and [`MebSubstitution::auto`] retargets them in one sweep — no
/// per-call-site buffer-kind plumbing.
pub struct MebSubstitution {
    target: MebTarget,
    kind: MebKind,
    arbiter: Option<ArbiterKind>,
}

impl MebSubstitution {
    /// Rewrite every MEB to `kind`.
    pub fn all(kind: MebKind) -> Self {
        Self {
            target: MebTarget::All,
            kind,
            arbiter: None,
        }
    }

    /// Rewrite only constructor-inserted (`auto`) MEBs to `kind`.
    pub fn auto(kind: MebKind) -> Self {
        Self {
            target: MebTarget::Auto,
            kind,
            arbiter: None,
        }
    }

    /// Rewrite the one MEB named `name` to `kind`.
    pub fn named(name: impl Into<String>, kind: MebKind) -> Self {
        Self {
            target: MebTarget::Named(name.into()),
            kind,
            arbiter: None,
        }
    }

    /// Also rewrite the targeted MEBs' arbitration policy.
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = Some(arbiter);
        self
    }
}

impl<T: Token> Pass<T> for MebSubstitution {
    fn name(&self) -> &'static str {
        "meb-substitution"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        let ids: Vec<IrNodeId> = match &self.target {
            MebTarget::Named(name) => {
                let id = ir
                    .node_named(name)
                    .ok_or_else(|| PassError::NoSuchNode { node: name.clone() })?;
                if !matches!(ir.node(id).tag(), IrNodeTag::Meb(_)) {
                    return Err(PassError::NotAMeb { node: name.clone() });
                }
                vec![id]
            }
            _ => ir.node_ids().collect(),
        };
        let mut changed = 0;
        let mut checked = 0;
        let mut deltas = Vec::new();
        for id in ids {
            checked += 1;
            // Resolved before the mutable borrow: the delta records the
            // thread count and width the cost model will re-derive at.
            let threads = ir.node_threads(id);
            let width = ir.node_width(id);
            let name = ir.node(id).name().to_string();
            if let IrNodeKind::Meb {
                kind,
                arbiter,
                auto,
                ..
            } = ir.node_mut(id).kind_mut()
            {
                if matches!(self.target, MebTarget::Auto) && !*auto {
                    continue;
                }
                if *kind != self.kind {
                    deltas.push(PassDelta::Resized {
                        node: name,
                        from: *kind,
                        to: self.kind,
                        threads,
                        width,
                    });
                    *kind = self.kind;
                    changed += 1;
                }
                if let Some(a) = self.arbiter {
                    if *arbiter != a {
                        // Arbitration policy does not move the LE count
                        // (the arbiter row depends on S only), so the
                        // rewrite counts as a change but emits no
                        // cost-relevant delta.
                        *arbiter = a;
                        changed += 1;
                    }
                }
            }
        }
        Ok(PassReport::new(<Self as Pass<T>>::name(self), changed, checked).with_deltas(deltas))
    }
}

/// Lints channel wiring and per-node protocol invariants:
///
/// * every channel has exactly one driver and one reader;
/// * all ports of a node agree on the thread count (an elastic circuit
///   never changes `S` mid-channel);
/// * single-thread EBs sit on 1-thread channels only;
/// * primitive arities hold (fork 1→N, join N→1, branch 1→2, …).
///   [`IrNodeKind::Custom`] nodes are exempt from the arity check.
pub struct ProtocolLint;

impl<T: Token> Pass<T> for ProtocolLint {
    fn name(&self) -> &'static str {
        "protocol-lint"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        let n_ch = ir.channel_count();
        // Counts per channel; the names are gathered only for a report.
        let mut drivers = vec![0usize; n_ch];
        let mut readers = vec![0usize; n_ch];
        for node in ir.nodes() {
            for ch in node.outputs() {
                drivers[ch.index()] += 1;
            }
            for ch in node.inputs() {
                readers[ch.index()] += 1;
            }
        }
        // Every node listing `ch` among `ports`, once per listing, in
        // node order.
        let listing = |ch: usize, ports: fn(&IrNode<T>) -> &[IrChannelId]| -> Vec<String> {
            ir.nodes()
                .flat_map(|node| {
                    ports(node)
                        .iter()
                        .filter(move |c| c.index() == ch)
                        .map(|_| node.name().to_string())
                })
                .collect()
        };
        for (i, spec) in ir.channels().enumerate() {
            match drivers[i] {
                0 => {
                    return Err(PassError::NoDriver {
                        channel: spec.name.clone(),
                    })
                }
                1 => {}
                _ => {
                    return Err(PassError::MultipleDrivers {
                        channel: spec.name.clone(),
                        drivers: listing(i, IrNode::outputs),
                    })
                }
            }
            match readers[i] {
                0 => {
                    return Err(PassError::NoReader {
                        channel: spec.name.clone(),
                    })
                }
                1 => {}
                _ => {
                    return Err(PassError::MultipleReaders {
                        channel: spec.name.clone(),
                        readers: listing(i, IrNode::inputs),
                    })
                }
            }
        }

        for node in ir.nodes() {
            if let Some((ch, expected, got)) = ir.thread_mismatch(node) {
                return Err(PassError::ThreadMismatch {
                    node: node.name().to_string(),
                    channel: ir.channel_info(ch).name.clone(),
                    expected,
                    got,
                });
            }
            let (ni, no) = (node.inputs().len(), node.outputs().len());
            if !node.tag().fits_ports(ni, no) {
                return Err(PassError::BadArity {
                    node: node.name().to_string(),
                    inputs: ni,
                    outputs: no,
                });
            }
        }
        Ok(PassReport::new(
            <Self as Pass<T>>::name(self),
            0,
            ir.node_count() + n_ch,
        ))
    }
}

/// Lints the EB/MEB cycle cut (paper Fig. 3): every structural cycle of
/// the netlist must pass through at least one node that registers its
/// handshake ([`IrNodeTag::cuts_cycles`]). This is the static,
/// pre-elaboration version of the rank scheduler's Tarjan SCC check —
/// the same defect, but reported as a typed error naming the cycle
/// before any component is constructed.
pub struct CycleCoverLint;

impl<T: Token> Pass<T> for CycleCoverLint {
    fn name(&self) -> &'static str {
        "cycle-cover-lint"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        let n = ir.node_count();
        // Adjacency over non-cutting nodes only: an edge u -> v for every
        // channel driven by u and read by v where neither registers the
        // handshake. Any cycle that survives this filtering is uncovered.
        let mut driver: Vec<Option<usize>> = vec![None; ir.channel_count()];
        for (i, node) in ir.nodes().enumerate() {
            for ch in node.outputs() {
                driver[ch.index()].get_or_insert(i);
            }
        }
        let cuts: Vec<bool> = ir.nodes().map(|n| n.tag().cuts_cycles()).collect();
        let (driver, cuts) = (&driver, &cuts);
        let adj = Adjacency::new(n, || {
            ir.nodes()
                .enumerate()
                .filter(|&(v, _)| !cuts[v])
                .flat_map(move |(v, node)| {
                    node.inputs()
                        .iter()
                        .filter_map(move |ch| driver[ch.index()])
                        .filter(move |&u| !cuts[u])
                        .map(move |u| (u, v))
                })
        });

        // Iterative DFS with gray/black colouring over one stack of
        // (node, next successor) frames; a gray->gray edge is a back edge,
        // and the stack segment from its head is the cycle.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; n];
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        for root in 0..n {
            if color[root] != WHITE || cuts[root] {
                continue;
            }
            color[root] = GRAY;
            stack.push((root, 0));
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if let Some(&v) = adj.successors(u).get(*next) {
                    *next += 1;
                    match color[v] {
                        WHITE => {
                            color[v] = GRAY;
                            stack.push((v, 0));
                        }
                        GRAY => {
                            let start = stack.iter().position(|&(p, _)| p == v).unwrap_or(0);
                            let mut nodes: Vec<String> = stack[start..]
                                .iter()
                                .map(|&(p, _)| ir.node(IrNodeId(p)).name().to_string())
                                .collect();
                            nodes.push(nodes[0].clone()); // close the loop visually
                            return Err(PassError::UnbufferedCycle { nodes });
                        }
                        _ => {}
                    }
                } else {
                    color[u] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(PassReport::new(<Self as Pass<T>>::name(self), 0, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNodeKind;
    use elastic_sim::ReadyPolicy;

    fn meb(auto: bool) -> IrNodeKind<u64> {
        IrNodeKind::Meb {
            kind: MebKind::Reduced,
            arbiter: ArbiterKind::RoundRobin,
            initial: Vec::new(),
            auto,
        }
    }

    /// src -> merge -> transform -> [meb?] -> branch -> (sink, back to merge)
    fn looped_ir(with_buffer: bool) -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let fresh = ir.channel("fresh", 2);
        let head = ir.channel("head", 2);
        let stepped = ir.channel("stepped", 2);
        let buffered = if with_buffer {
            ir.channel("buffered", 2)
        } else {
            stepped
        };
        let done = ir.channel("done", 2);
        let back = ir.channel("back", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![fresh]);
        ir.add("entry", IrNodeKind::Merge, vec![fresh, back], vec![head]);
        ir.add(
            "step",
            IrNodeKind::Transform {
                f: Box::new(|&v| v + 1),
            },
            vec![head],
            vec![stepped],
        );
        if with_buffer {
            ir.add("loop_buf", meb(true), vec![stepped], vec![buffered]);
        }
        ir.add(
            "exit",
            IrNodeKind::Branch {
                cond: Box::new(|&v| v > 3),
            },
            vec![buffered],
            vec![done, back],
        );
        ir.add(
            "out",
            IrNodeKind::Sink {
                capture: true,
                policy: ReadyPolicy::Always,
            },
            vec![done],
            vec![],
        );
        ir
    }

    #[test]
    fn cycle_cover_accepts_buffered_loop() {
        let mut ir = looped_ir(true);
        let report = Pass::<u64>::run(&mut CycleCoverLint, &mut ir).expect("covered");
        assert_eq!(report.pass, "cycle-cover-lint");
    }

    #[test]
    fn cycle_cover_rejects_unbuffered_loop_naming_the_cycle() {
        let mut ir = looped_ir(false);
        let err = Pass::<u64>::run(&mut CycleCoverLint, &mut ir).expect_err("uncovered");
        let PassError::UnbufferedCycle { nodes } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert!(nodes.iter().any(|n| n == "entry"), "{nodes:?}");
        assert!(nodes.iter().any(|n| n == "step"), "{nodes:?}");
        assert!(nodes.iter().any(|n| n == "exit"), "{nodes:?}");
        let msg = err.to_string();
        assert!(msg.contains("combinational loop"), "{msg}");
    }

    #[test]
    fn protocol_lint_accepts_wellformed_ir() {
        let mut ir = looped_ir(true);
        Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect("clean");
    }

    #[test]
    fn protocol_lint_rejects_dangling_channel() {
        let mut ir = looped_ir(true);
        ir.channel("orphan", 2);
        let err = Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect_err("dangling");
        assert!(matches!(err, PassError::NoDriver { ref channel } if channel == "orphan"));
    }

    /// A shared channel's report names every node listing it, in node
    /// order, once per listing.
    #[test]
    fn protocol_lint_lists_every_driver_and_reader_in_node_order() {
        let sink = || IrNodeKind::Sink {
            capture: false,
            policy: ReadyPolicy::Always,
        };
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel("b", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "twice",
            IrNodeKind::Fork { route: None },
            vec![b],
            vec![a, a],
        );
        ir.add("snk", sink(), vec![a], vec![]);
        ir.add("feed", IrNodeKind::Source, vec![], vec![b]);
        let err = Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect_err("shared");
        assert_eq!(
            err,
            PassError::MultipleDrivers {
                channel: "a".into(),
                drivers: vec!["src".into(), "twice".into(), "twice".into()],
            }
        );

        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel("b", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("snk", sink(), vec![a], vec![]);
        ir.add("twice", IrNodeKind::Merge, vec![a, a], vec![b]);
        ir.add("out", sink(), vec![b], vec![]);
        let err = Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect_err("shared");
        assert_eq!(
            err,
            PassError::MultipleReaders {
                channel: "a".into(),
                readers: vec!["snk".into(), "twice".into(), "twice".into()],
            }
        );
    }

    /// Two separate unbuffered loops behind one fork: the lint names the
    /// loop its depth-first walk enters first, from where it entered.
    #[test]
    fn cycle_cover_names_the_first_loop_it_walks_into() {
        let mut ir = ElasticIr::<u64>::new();
        let fresh = ir.channel("fresh", 2);
        let to_a = ir.channel("to_a", 2);
        let to_b = ir.channel("to_b", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![fresh]);
        ir.add(
            "split",
            IrNodeKind::Fork { route: None },
            vec![fresh],
            vec![to_a, to_b],
        );
        for (p, entry) in [("b", to_b), ("a", to_a)] {
            let head = ir.channel(format!("{p}_head"), 2);
            let stepped = ir.channel(format!("{p}_stepped"), 2);
            let done = ir.channel(format!("{p}_done"), 2);
            let back = ir.channel(format!("{p}_back"), 2);
            ir.add(
                format!("{p}_out"),
                IrNodeKind::Sink {
                    capture: false,
                    policy: ReadyPolicy::Always,
                },
                vec![done],
                vec![],
            );
            ir.add(
                format!("{p}_exit"),
                IrNodeKind::Branch {
                    cond: Box::new(|&v| v > 3),
                },
                vec![stepped],
                vec![done, back],
            );
            ir.add(
                format!("{p}_step"),
                IrNodeKind::Transform {
                    f: Box::new(|&v| v + 1),
                },
                vec![head],
                vec![stepped],
            );
            ir.add(
                format!("{p}_entry"),
                IrNodeKind::Merge,
                vec![back, entry],
                vec![head],
            );
        }
        let err = Pass::<u64>::run(&mut CycleCoverLint, &mut ir).expect_err("uncovered");
        // Successors follow node order, not the fork's port order.
        let nodes = ["b_entry", "b_step", "b_exit", "b_entry"].map(String::from);
        assert_eq!(
            err,
            PassError::UnbufferedCycle {
                nodes: nodes.into()
            }
        );
    }

    #[test]
    fn protocol_lint_rejects_thread_mismatch() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel("b", 3);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("buf", meb(false), vec![a], vec![b]);
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        let err = Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect_err("mismatch");
        assert!(
            matches!(
                err,
                PassError::ThreadMismatch {
                    ref node,
                    expected: 2,
                    got: 3,
                    ..
                } if node == "buf"
            ),
            "{err:?}"
        );
    }

    #[test]
    fn protocol_lint_rejects_bad_arity() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 2);
        let b = ir.channel("b", 2);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        // A "fork" with a single output is ill-formed.
        ir.add("fk", IrNodeKind::Fork { route: None }, vec![a], vec![b]);
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![b],
            vec![],
        );
        let err = Pass::<u64>::run(&mut ProtocolLint, &mut ir).expect_err("arity");
        assert!(matches!(err, PassError::BadArity { ref node, .. } if node == "fk"));
    }

    #[test]
    fn meb_substitution_targets_auto_buffers_only() {
        let mut ir = looped_ir(true);
        // Add a designer-placed (non-auto) MEB in series after the loop.
        let done = ir.node_named("out").map(|id| ir.node(id).inputs()[0]);
        let _ = done; // the sink keeps reading `done`; add a fresh tail instead
        let t1 = ir.channel("tail_in", 2);
        let t2 = ir.channel("tail_out", 2);
        ir.add("tsrc", IrNodeKind::Source, vec![], vec![t1]);
        ir.add("manual_buf", meb(false), vec![t1], vec![t2]);
        ir.add(
            "tsnk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![t2],
            vec![],
        );

        let mut pass = MebSubstitution::auto(MebKind::Full);
        let report = Pass::<u64>::run(&mut pass, &mut ir).expect("substitutes");
        assert_eq!(report.changed, 1);
        let auto_id = ir.node_named("loop_buf").unwrap();
        let manual_id = ir.node_named("manual_buf").unwrap();
        assert_eq!(ir.node(auto_id).tag(), IrNodeTag::Meb(MebKind::Full));
        assert_eq!(ir.node(manual_id).tag(), IrNodeTag::Meb(MebKind::Reduced));

        // `all` sweeps both; `named` retargets exactly one.
        let mut all = MebSubstitution::all(MebKind::Fifo { depth: 4 });
        Pass::<u64>::run(&mut all, &mut ir).expect("all");
        assert_eq!(
            ir.node(manual_id).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 4 })
        );
        let mut named = MebSubstitution::named("manual_buf", MebKind::Reduced);
        Pass::<u64>::run(&mut named, &mut ir).expect("named");
        assert_eq!(ir.node(manual_id).tag(), IrNodeTag::Meb(MebKind::Reduced));
        assert_eq!(
            ir.node(auto_id).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 4 })
        );
    }

    #[test]
    fn meb_substitution_rejects_bad_targets() {
        let mut ir = looped_ir(true);
        let mut missing = MebSubstitution::named("nope", MebKind::Full);
        assert!(matches!(
            Pass::<u64>::run(&mut missing, &mut ir),
            Err(PassError::NoSuchNode { .. })
        ));
        let mut not_meb = MebSubstitution::named("entry", MebKind::Full);
        assert!(matches!(
            Pass::<u64>::run(&mut not_meb, &mut ir),
            Err(PassError::NotAMeb { .. })
        ));
    }

    #[test]
    fn lint_suite_runs_both_lints() {
        let mut ir = looped_ir(true);
        let reports = PassManager::<u64>::lint_suite()
            .run(&mut ir)
            .expect("clean");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].pass, "protocol-lint");
        assert_eq!(reports[1].pass, "cycle-cover-lint");
    }
}
