//! The dataflow front-end: a thin builder that writes [`ElasticIr`]
//! nodes and channels as each method is called.

use std::collections::BTreeMap;

use elastic_core::{ArbiterKind, MebKind};
use elastic_sim::{LatencyModel, ReadyPolicy, Token};

use crate::circuit::SynthCircuit;
use crate::ir::{ElasticIr, IrChannelId, IrError, IrNodeId, IrNodeKind};
use crate::passes::{PassError, PassManager};

/// Handle to a value in the dataflow graph: the IR channel its one
/// consumer reads. Elastic channels are point-to-point, so fan-out needs
/// an explicit [fork](DataflowBuilder::fork).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Wire(IrChannelId);

/// Latency class of an operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OpLatency {
    /// Pure combinational logic between buffers (zero cycles).
    #[default]
    Combinational,
    /// A registered unit taking exactly `n` cycles.
    Fixed(u32),
    /// A variable-latency unit, uniform in `min..=max` cycles.
    Variable {
        /// Minimum latency (≥ 1).
        min: u32,
        /// Maximum latency.
        max: u32,
        /// RNG seed.
        seed: u64,
    },
}

/// Errors detected while assembling or elaborating a graph.
#[derive(Debug)]
pub enum SynthError {
    /// The graph has no nodes.
    EmptyGraph,
    /// [`DataflowBuilder::loopback`] named a port that is not an input
    /// of the graph (or was already closed).
    NoSuchInput {
        /// The requested port.
        port: String,
    },
    /// [`DataflowBuilder::loopback`] closed a placeholder input that
    /// nothing reads yet.
    PlaceholderUnread {
        /// The placeholder port.
        port: String,
    },
    /// [`DataflowBuilder::loopback`] was given a wire that already has a
    /// consumer.
    WireConsumed {
        /// The placeholder port.
        port: String,
        /// The channel the wire's consumer reads.
        channel: String,
    },
    /// An IR lint rejected the netlist — a dangling wire
    /// ([`PassError::NoReader`]), a wire read twice
    /// ([`PassError::MultipleReaders`]), a bad arity
    /// ([`PassError::BadArity`]) or a feedback loop with no elastic
    /// buffer on it ([`PassError::UnbufferedCycle`]).
    Lint(PassError),
    /// The IR failed elaboration, e.g. a buffer given more initial tokens
    /// than it holds ([`IrError::Protocol`]).
    Elaborate(IrError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::EmptyGraph => write!(f, "dataflow graph has no nodes"),
            SynthError::NoSuchInput { port } => write!(f, "no input port named `{port}`"),
            SynthError::PlaceholderUnread { port } => {
                write!(f, "placeholder `{port}` is not consumed by anything yet")
            }
            SynthError::WireConsumed { port, channel } => write!(
                f,
                "loopback source for `{port}` (channel `{channel}`) is already consumed"
            ),
            SynthError::Lint(e) => write!(f, "lint rejected the netlist: {e}"),
            SynthError::Elaborate(e) => write!(f, "elaboration failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Lint(e) => Some(e),
            SynthError::Elaborate(e) => Some(e),
            _ => None,
        }
    }
}

/// Assembles a dataflow graph directly as an [`ElasticIr`] built from
/// the paper's primitives.
///
/// Each method writes its nodes and channels when called. Wire `n` out
/// of a producer's port `p` is the channel `w{n}:{producer}.{p}`. An op
/// lowers to `{op}:fn` (one input) or `{op}:join` (otherwise), followed
/// by a latency unit `{op}:unit` fed through `{op}:joined` unless it is
/// combinational. Every op and merge output is registered by a reduced
/// round-robin MEB `autobuf:w{n}` marked `auto`, whose output is the
/// channel `w{n}:{producer}.0:buf`; [`MebSubstitution::auto`] retargets
/// exactly those buffers.
///
/// [`MebSubstitution::auto`]: crate::MebSubstitution::auto
///
/// # Examples
///
/// A two-input adder with an external result port:
///
/// ```
/// use elastic_synth::{DataflowBuilder, OpLatency};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DataflowBuilder::<u64>::new(2);
/// let a = g.input("a");
/// let b = g.input("b");
/// let sum = g.op2("add", OpLatency::Combinational, a, b, |x, y| x + y);
/// g.output("sum", sum);
/// let mut s = g.elaborate()?;
/// s.push("a", 0, 2)?;
/// s.push("b", 0, 40)?;
/// s.run_until_outputs("sum", 1, 100)?;
/// assert_eq!(s.collected("sum", 0), vec![42]);
/// # Ok(())
/// # }
/// ```
pub struct DataflowBuilder<T: Token> {
    threads: usize,
    ir: ElasticIr<T>,
    /// Wires declared so far: the `n` of the next `w{n}` channel.
    wires: usize,
    /// External input port → source node name.
    inputs: BTreeMap<String, String>,
    /// External output port → sink node name.
    outputs: BTreeMap<String, String>,
    /// Placeholder sources closed by [`loopback`](Self::loopback);
    /// [`build_ir`](Self::build_ir) drops them.
    closed: Vec<IrNodeId>,
}

impl<T: Token> DataflowBuilder<T> {
    /// An empty graph whose channels support `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a graph needs at least one thread");
        Self {
            threads,
            ir: ElasticIr::new(),
            wires: 0,
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            closed: Vec::new(),
        }
    }

    /// Thread count of every channel in the elaborated circuit.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Declares wire `n`, the channel out of `producer`'s output `port`.
    fn wire(&mut self, producer: &str, port: usize) -> (usize, IrChannelId) {
        let n = self.wires;
        self.wires += 1;
        let ch = self
            .ir
            .channel(format!("w{n}:{producer}.{port}"), self.threads);
        (n, ch)
    }

    /// Registers wire `n` (channel `out`) behind an auto-inserted MEB and
    /// returns the buffered wire its consumer reads.
    fn auto_buffer(&mut self, n: usize, out: IrChannelId) -> Wire {
        let name = format!("{}:buf", self.ir.channel_info(out).name);
        let buffered = self.ir.channel(name, self.threads);
        self.ir.add(
            format!("autobuf:w{n}"),
            IrNodeKind::Meb {
                kind: MebKind::Reduced,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: true,
            },
            vec![out],
            vec![buffered],
        );
        Wire(buffered)
    }

    /// Adds `name`, a node of one input and one output, and returns its
    /// output wire.
    fn stage(&mut self, name: String, kind: IrNodeKind<T>, input: Wire) -> Wire {
        let (_, out) = self.wire(&name, 0);
        self.ir.add(name, kind, vec![input.0], vec![out]);
        Wire(out)
    }

    /// Declares an external input port.
    pub fn input(&mut self, name: impl Into<String>) -> Wire {
        let name = name.into();
        let (_, out) = self.wire(&name, 0);
        let source = format!("in:{name}");
        self.ir
            .add(source.clone(), IrNodeKind::Source, vec![], vec![out]);
        self.inputs.insert(name, source);
        Wire(out)
    }

    /// Declares an external output port consuming `wire`.
    pub fn output(&mut self, name: impl Into<String>, wire: Wire) {
        let name = name.into();
        let sink = format!("out:{name}");
        self.ir.add(
            sink.clone(),
            IrNodeKind::Sink {
                capture: true,
                policy: ReadyPolicy::Always,
            },
            vec![wire.0],
            vec![],
        );
        self.outputs.insert(name, sink);
    }

    /// An N-ary operation over `inputs`. An op with no inputs is reported
    /// by [`build_ir`](Self::build_ir) as a bad arity.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        latency: OpLatency,
        inputs: &[Wire],
        f: impl Fn(&[&T]) -> T + Send + 'static,
    ) -> Wire {
        match inputs {
            [a] => self.op1(name, latency, *a, move |t| f(&[t])),
            _ => self.op_node(
                name.into(),
                latency,
                inputs,
                IrNodeKind::Join {
                    combine: Box::new(f),
                },
            ),
        }
    }

    /// A unary operation.
    pub fn op1(
        &mut self,
        name: impl Into<String>,
        latency: OpLatency,
        a: Wire,
        f: impl Fn(&T) -> T + Send + 'static,
    ) -> Wire {
        let kind = IrNodeKind::Transform { f: Box::new(f) };
        self.op_node(name.into(), latency, &[a], kind)
    }

    /// A binary operation.
    pub fn op2(
        &mut self,
        name: impl Into<String>,
        latency: OpLatency,
        a: Wire,
        b: Wire,
        f: impl Fn(&T, &T) -> T + Send + 'static,
    ) -> Wire {
        self.op(name, latency, &[a, b], move |ins| f(ins[0], ins[1]))
    }

    /// Lowers an op: its function node `f` (a transform or a join), a
    /// latency unit unless it is combinational, and the auto-buffer.
    fn op_node(
        &mut self,
        name: String,
        latency: OpLatency,
        inputs: &[Wire],
        f: IrNodeKind<T>,
    ) -> Wire {
        let (n, out) = self.wire(&name, 0);
        let suffix = match f {
            IrNodeKind::Transform { .. } => "fn",
            _ => "join",
        };
        let model = match latency {
            OpLatency::Combinational => None,
            OpLatency::Fixed(cycles) => Some(LatencyModel::Fixed(cycles)),
            OpLatency::Variable { min, max, seed } => {
                Some(LatencyModel::Uniform { min, max, seed })
            }
        };
        // Without a latency unit the function node drives the wire itself.
        let joined = match model {
            None => out,
            Some(_) => self.ir.channel(format!("{name}:joined"), self.threads),
        };
        let ins = inputs.iter().map(|w| w.0).collect();
        self.ir
            .add(format!("{name}:{suffix}"), f, ins, vec![joined]);
        if let Some(model) = model {
            let unit = IrNodeKind::VarLatency {
                servers: self.threads.max(2),
                model,
                transform: None,
            };
            self.ir
                .add(format!("{name}:unit"), unit, vec![joined], vec![out]);
        }
        self.auto_buffer(n, out)
    }

    /// A conditional router; returns `(taken, not_taken)` wires.
    pub fn branch(
        &mut self,
        name: impl Into<String>,
        input: Wire,
        cond: impl Fn(&T) -> bool + Send + 'static,
    ) -> (Wire, Wire) {
        let name = name.into();
        let (_, taken) = self.wire(&name, 0);
        let (_, not_taken) = self.wire(&name, 1);
        let kind = IrNodeKind::Branch {
            cond: Box::new(cond),
        };
        self.ir
            .add(name, kind, vec![input.0], vec![taken, not_taken]);
        (Wire(taken), Wire(not_taken))
    }

    /// An N-way merge. A merge of fewer than two inputs is reported by
    /// [`build_ir`](Self::build_ir) as a bad arity.
    pub fn merge(&mut self, name: impl Into<String>, inputs: &[Wire]) -> Wire {
        let name = name.into();
        let (n, out) = self.wire(&name, 0);
        let ins = inputs.iter().map(|w| w.0).collect();
        self.ir.add(name, IrNodeKind::Merge, ins, vec![out]);
        self.auto_buffer(n, out)
    }

    /// Replicates `input` to `n` consumers (eager fork). A fork of fewer
    /// than two outputs is reported by [`build_ir`](Self::build_ir) as a
    /// bad arity.
    pub fn fork(&mut self, name: impl Into<String>, input: Wire, n: usize) -> Vec<Wire> {
        let name = name.into();
        let outs: Vec<IrChannelId> = (0..n).map(|port| self.wire(&name, port).1).collect();
        let kind = IrNodeKind::Fork { route: None };
        self.ir.add(name, kind, vec![input.0], outs.clone());
        outs.into_iter().map(Wire).collect()
    }

    /// Inserts an explicit round-robin MEB of microarchitecture `kind`.
    /// Unlike the auto-inserted buffers it is not marked `auto`, so
    /// [`MebSubstitution::auto`](crate::MebSubstitution::auto) leaves it
    /// alone.
    pub fn buffer(&mut self, name: impl Into<String>, input: Wire, kind: MebKind) -> Wire {
        self.buffer_with_initial(name, input, kind, Vec::new())
    }

    /// Inserts an explicit MEB pre-loaded with `initial` tokens — the
    /// dataflow "token on the back edge" that seeds accumulator loops
    /// (each thread's first join partner before any looped value exists).
    ///
    /// Initial tokens beyond the MEB kind's per-thread capacity, or on a
    /// thread the graph does not have, make [`SynthIr::elaborate`] return
    /// [`SynthError::Elaborate`] with the typed [`IrError::Protocol`].
    pub fn buffer_with_initial(
        &mut self,
        name: impl Into<String>,
        input: Wire,
        kind: MebKind,
        initial: Vec<(usize, T)>,
    ) -> Wire {
        let kind = IrNodeKind::Meb {
            kind,
            arbiter: ArbiterKind::RoundRobin,
            initial,
            auto: false,
        };
        self.stage(name.into(), kind, input)
    }

    /// Inserts a thread barrier across all threads of the graph.
    pub fn barrier(&mut self, name: impl Into<String>, input: Wire) -> Wire {
        let kind = IrNodeKind::Barrier {
            participants: None,
            on_release: None,
        };
        self.stage(name.into(), kind, input)
    }

    /// Closes a feedback loop: the node reading the placeholder input
    /// port `port` reads `wire` instead. The placeholder stops being an
    /// input port, and [`build_ir`](Self::build_ir) drops its source
    /// and channel.
    ///
    /// This is how iterative circuits (the GCD example, the MD5 round
    /// loop) are described: declare an input as a stand-in for the value
    /// coming around the loop, build the body, then `loopback` the body's
    /// result onto the stand-in.
    ///
    /// # Errors
    ///
    /// [`SynthError::NoSuchInput`] when `port` is not an input port,
    /// [`SynthError::PlaceholderUnread`] when nothing reads the
    /// placeholder yet, and [`SynthError::WireConsumed`] when `wire`
    /// already has a consumer. The graph is unchanged on error.
    pub fn loopback(&mut self, port: &str, wire: Wire) -> Result<(), SynthError> {
        let source = self
            .inputs
            .get(port)
            .and_then(|name| self.ir.node_named(name))
            .ok_or_else(|| SynthError::NoSuchInput {
                port: port.to_string(),
            })?;
        let placeholder = self.ir.node(source).outputs()[0];
        let reader =
            self.ir
                .reader_of(placeholder)
                .ok_or_else(|| SynthError::PlaceholderUnread {
                    port: port.to_string(),
                })?;
        if self.ir.reader_of(wire.0).is_some() {
            return Err(SynthError::WireConsumed {
                port: port.to_string(),
                channel: self.ir.channel_info(wire.0).name.clone(),
            });
        }
        for slot in self.ir.node_mut(reader).inputs_mut() {
            if *slot == placeholder {
                *slot = wire.0;
            }
        }
        self.inputs.remove(port);
        self.closed.push(source);
        Ok(())
    }

    /// Finishes the graph as a structural [`ElasticIr`] netlist — stage
    /// one of elaboration.
    ///
    /// Drops the placeholders closed by [`loopback`](Self::loopback),
    /// puts the auto-inserted buffers first, and runs
    /// [`PassManager::lint_suite`], so wiring mistakes and a feedback loop
    /// with no buffer on it come back as a typed [`SynthError::Lint`]
    /// before any component is constructed.
    ///
    /// The returned [`SynthIr`] can be inspected (`ir.to_dot()`), costed
    /// (`Inventory::from_ir`), rewritten with further passes — e.g.
    /// [`MebSubstitution::auto`](crate::MebSubstitution::auto) to choose
    /// the inserted buffers' microarchitecture or arbiter — and finally
    /// [`SynthIr::elaborate`]d into a runnable circuit.
    ///
    /// # Errors
    ///
    /// [`SynthError::EmptyGraph`] or a [`SynthError::Lint`].
    pub fn build_ir(self) -> Result<SynthIr<T>, SynthError> {
        let Self {
            threads,
            mut ir,
            inputs,
            outputs,
            closed,
            ..
        } = self;
        if ir.node_count() == 0 {
            return Err(SynthError::EmptyGraph);
        }
        ir.finish_dataflow(&closed);
        PassManager::lint_suite()
            .run(&mut ir)
            .map_err(SynthError::Lint)?;
        Ok(SynthIr {
            ir,
            inputs,
            outputs,
            threads,
        })
    }

    /// Elaborates the graph into a runnable [`SynthCircuit`] — both
    /// stages at once: [`build_ir`](Self::build_ir) followed by
    /// [`SynthIr::elaborate`].
    ///
    /// # Errors
    ///
    /// Any error of either stage.
    pub fn elaborate(self) -> Result<SynthCircuit<T>, SynthError> {
        self.build_ir()?.elaborate()
    }
}

/// Stage-one output of synthesis: the structural [`ElasticIr`] netlist
/// plus the external port bookkeeping needed to wrap the elaborated
/// circuit in a [`SynthCircuit`].
///
/// The IR is public — inspect it, render it (`synth.ir.to_dot()`), cost
/// it (`Inventory::from_ir(&synth.ir)`), or rewrite it with further
/// passes (e.g. [`MebSubstitution::named`](crate::MebSubstitution::named)
/// to retarget one buffer) before elaborating.
pub struct SynthIr<T: Token> {
    /// The lowered netlist.
    pub ir: ElasticIr<T>,
    /// External input port → source node name.
    inputs: BTreeMap<String, String>,
    /// External output port → sink node name.
    outputs: BTreeMap<String, String>,
    threads: usize,
}

impl<T: Token> SynthIr<T> {
    /// Thread count of every channel in the netlist.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Elaborates the IR into a runnable [`SynthCircuit`] — stage two.
    ///
    /// # Errors
    ///
    /// [`SynthError::Elaborate`] with the [`IrError`] of
    /// [`ElasticIr::elaborate`], e.g. [`IrError::Protocol`] for initial
    /// tokens that overflow a buffer.
    pub fn elaborate(self) -> Result<SynthCircuit<T>, SynthError> {
        // Resolved by name: passes may have rewired the sinks' inputs.
        let sink_inputs: Vec<IrChannelId> = self
            .outputs
            .values()
            .map(|sink| {
                let id = self.ir.node_named(sink).expect("the IR keeps every sink");
                self.ir.node(id).inputs()[0]
            })
            .collect();
        let elaborated = self.ir.elaborate().map_err(SynthError::Elaborate)?;
        let outputs = self
            .outputs
            .into_iter()
            .zip(sink_inputs)
            .map(|((port, sink), ch)| (port, (sink, elaborated.channel(ch))))
            .collect();
        Ok(SynthCircuit::new(
            elaborated.circuit,
            self.threads,
            self.inputs,
            outputs,
        ))
    }
}

impl<T: Token> std::fmt::Debug for SynthIr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthIr")
            .field("threads", &self.threads)
            .field("ir", &self.ir)
            .field("inputs", &self.inputs.keys().collect::<Vec<_>>())
            .field("outputs", &self.outputs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<T: Token> std::fmt::Debug for DataflowBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowBuilder")
            .field("threads", &self.threads)
            .field("ir", &self.ir)
            .field("wires", &self.wires)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = SynthError::NoSuchInput { port: "acc".into() };
        assert!(e.to_string().contains("acc"));
        assert!(SynthError::EmptyGraph.to_string().contains("no nodes"));
    }
}
