//! Graph assembly and elaboration into an elastic circuit.

use std::collections::BTreeMap;

use elastic_core::{ArbiterKind, ForkMode, MebKind};
use elastic_sim::{ChannelId, LatencyModel, ReadyPolicy, Token};

use crate::circuit::SynthCircuit;
use crate::graph::{BufferPolicy, Node, OpLatency, SynthError, Wire};
use crate::ir::{ElasticIr, IrChannelId, IrNodeKind};
use crate::passes::{CycleCoverLint, MebSubstitution, PassManager, ProtocolLint};

/// Elaboration options.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// MEB microarchitecture for every inserted buffer.
    pub meb: MebKind,
    /// Arbitration policy inside every inserted buffer.
    pub arbiter: ArbiterKind,
    /// Automatic buffer insertion policy.
    pub buffers: BufferPolicy,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            meb: MebKind::Reduced,
            arbiter: ArbiterKind::RoundRobin,
            buffers: BufferPolicy::AfterOps,
        }
    }
}

/// Assembles a dataflow graph and elaborates it into a multithreaded
/// elastic circuit built from the paper's primitives.
///
/// # Examples
///
/// A two-input adder with an external result port:
///
/// ```
/// use elastic_synth::{DataflowBuilder, OpLatency, SynthConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DataflowBuilder::<u64>::new(2);
/// let a = g.input("a");
/// let b = g.input("b");
/// let sum = g.op2("add", OpLatency::Combinational, a, b, |x, y| x + y);
/// g.output("sum", sum);
/// let mut s = g.elaborate(SynthConfig::default())?;
/// s.push("a", 0, 2)?;
/// s.push("b", 0, 40)?;
/// s.run_until_outputs("sum", 1, 100)?;
/// assert_eq!(s.collected("sum", 0), vec![42]);
/// # Ok(())
/// # }
/// ```
pub struct DataflowBuilder<T: Token> {
    threads: usize,
    nodes: Vec<Node<T>>,
    /// Wires consumed by each node, in port order.
    node_inputs: Vec<Vec<Wire>>,
    /// `(producer node, output port)` per wire.
    producer: Vec<(usize, usize)>,
    /// Consuming node per wire, filled as nodes are added.
    consumer: Vec<Option<usize>>,
    /// Nodes removed by [`loopback`](DataflowBuilder::loopback).
    dead_nodes: Vec<bool>,
    /// Wires removed by [`loopback`](DataflowBuilder::loopback).
    dead_wires: Vec<bool>,
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
            nodes: Vec::new(),
            node_inputs: Vec::new(),
            producer: Vec::new(),
            consumer: Vec::new(),
            dead_nodes: Vec::new(),
            dead_wires: Vec::new(),
        }
    }

    /// Thread count of every channel in the elaborated circuit.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn add_node(&mut self, node: Node<T>, inputs: Vec<Wire>) -> usize {
        let idx = self.nodes.len();
        for &w in &inputs {
            assert!(w.0 < self.producer.len(), "wire belongs to another graph");
            assert!(
                self.consumer[w.0].is_none(),
                "wire #{} (from `{}`) is already consumed — insert a fork for fan-out",
                w.0,
                self.nodes[self.producer[w.0].0].name()
            );
            self.consumer[w.0] = Some(idx);
        }
        debug_assert_eq!(inputs.len(), node.inputs());
        self.nodes.push(node);
        self.node_inputs.push(inputs);
        self.dead_nodes.push(false);
        idx
    }

    fn add_outputs(&mut self, node: usize, n: usize) -> Vec<Wire> {
        (0..n)
            .map(|port| {
                let w = Wire(self.producer.len());
                self.producer.push((node, port));
                self.consumer.push(None);
                self.dead_wires.push(false);
                w
            })
            .collect()
    }

    /// Declares an external input port.
    pub fn input(&mut self, name: impl Into<String>) -> Wire {
        let idx = self.add_node(Node::Input { name: name.into() }, vec![]);
        self.add_outputs(idx, 1)[0]
    }

    /// Declares an external output port consuming `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is already consumed.
    pub fn output(&mut self, name: impl Into<String>, wire: Wire) {
        self.add_node(Node::Output { name: name.into() }, vec![wire]);
    }

    /// An N-ary operation over `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any wire is already consumed.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        latency: OpLatency,
        inputs: &[Wire],
        f: impl Fn(&[&T]) -> T + Send + 'static,
    ) -> Wire {
        assert!(!inputs.is_empty(), "an op needs at least one input");
        let node = Node::Op {
            name: name.into(),
            arity: inputs.len(),
            f: Box::new(f),
            latency,
        };
        let idx = self.add_node(node, inputs.to_vec());
        self.add_outputs(idx, 1)[0]
    }

    /// A unary operation.
    pub fn op1(
        &mut self,
        name: impl Into<String>,
        latency: OpLatency,
        a: Wire,
        f: impl Fn(&T) -> T + Send + 'static,
    ) -> Wire {
        self.op(name, latency, &[a], move |ins| f(ins[0]))
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

    /// A conditional router; returns `(taken, not_taken)` wires.
    pub fn branch(
        &mut self,
        name: impl Into<String>,
        input: Wire,
        cond: impl Fn(&T) -> bool + Send + 'static,
    ) -> (Wire, Wire) {
        let idx = self.add_node(
            Node::Branch {
                name: name.into(),
                cond: Box::new(cond),
            },
            vec![input],
        );
        let outs = self.add_outputs(idx, 2);
        (outs[0], outs[1])
    }

    /// An N-way merge.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn merge(&mut self, name: impl Into<String>, inputs: &[Wire]) -> Wire {
        assert!(inputs.len() >= 2, "a merge needs at least two inputs");
        let node = Node::Merge {
            name: name.into(),
            arity: inputs.len(),
        };
        let idx = self.add_node(node, inputs.to_vec());
        self.add_outputs(idx, 1)[0]
    }

    /// Replicates `input` to `n` consumers (eager fork).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn fork(&mut self, name: impl Into<String>, input: Wire, n: usize) -> Vec<Wire> {
        assert!(n >= 2, "a fork needs at least two outputs");
        let idx = self.add_node(
            Node::Fork {
                name: name.into(),
                arity: n,
            },
            vec![input],
        );
        self.add_outputs(idx, n)
    }

    /// Inserts an explicit MEB.
    pub fn buffer(&mut self, name: impl Into<String>, input: Wire, kind: MebKind) -> Wire {
        self.buffer_with_initial(name, input, kind, Vec::new())
    }

    /// Inserts an explicit MEB pre-loaded with `initial` tokens — the
    /// dataflow "token on the back edge" that seeds accumulator loops
    /// (each thread's first join partner before any looped value exists).
    ///
    /// # Panics
    ///
    /// The elaborated buffer panics at construction if the initial tokens
    /// exceed the MEB kind's per-thread capacity.
    pub fn buffer_with_initial(
        &mut self,
        name: impl Into<String>,
        input: Wire,
        kind: MebKind,
        initial: Vec<(usize, T)>,
    ) -> Wire {
        let idx = self.add_node(
            Node::Buffer {
                name: name.into(),
                kind,
                initial,
            },
            vec![input],
        );
        self.add_outputs(idx, 1)[0]
    }

    /// Inserts a thread barrier across all threads of the graph.
    pub fn barrier(&mut self, name: impl Into<String>, input: Wire) -> Wire {
        let idx = self.add_node(Node::Barrier { name: name.into() }, vec![input]);
        self.add_outputs(idx, 1)[0]
    }

    /// Closes a feedback loop: rebinds the placeholder input port `port`
    /// so that its consumer reads from `wire` instead. The placeholder
    /// input node and its wire are removed from the graph.
    ///
    /// This is how iterative circuits (the GCD example, the MD5 round
    /// loop) are described: declare an input as a stand-in for the value
    /// coming around the loop, build the body, then `loopback` the body's
    /// result onto the stand-in.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::UnconsumedWire`]-style diagnostics via
    /// [`SynthError::Build`] when `port` is not a placeholder input, the
    /// placeholder is not yet consumed, or `wire` is already consumed.
    pub fn loopback(&mut self, port: &str, wire: Wire) -> Result<(), SynthError> {
        let node_idx = self
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Input { name } if name == port))
            .ok_or_else(|| SynthError::Build(format!("no input port named `{port}`")))?;
        let placeholder = (0..self.producer.len())
            .find(|&w| !self.dead_wires[w] && self.producer[w].0 == node_idx)
            .map(Wire)
            .ok_or_else(|| SynthError::Build(format!("input `{port}` has no live wire")))?;
        let consumer_node = self.consumer[placeholder.0].ok_or_else(|| {
            SynthError::Build(format!(
                "placeholder `{port}` is not consumed by anything yet"
            ))
        })?;
        if self.consumer[wire.0].is_some() {
            return Err(SynthError::Build(format!(
                "loopback source wire #{} is already consumed",
                wire.0
            )));
        }
        for slot in &mut self.node_inputs[consumer_node] {
            if *slot == placeholder {
                *slot = wire;
            }
        }
        self.consumer[wire.0] = Some(consumer_node);
        self.dead_nodes[node_idx] = true;
        self.dead_wires[placeholder.0] = true;
        Ok(())
    }

    fn validate(&self) -> Result<(), SynthError> {
        if self.nodes.is_empty() {
            return Err(SynthError::EmptyGraph);
        }
        for (w, consumer) in self.consumer.iter().enumerate() {
            if self.dead_wires[w] {
                continue;
            }
            if consumer.is_none() {
                return Err(SynthError::UnconsumedWire {
                    wire: w,
                    producer: self.nodes[self.producer[w].0].name().to_string(),
                });
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if self.dead_nodes[i] {
                continue;
            }
            match node {
                Node::Op { arity, .. } if *arity == 0 => {
                    return Err(SynthError::BadArity {
                        node: node.name().to_string(),
                        arity: 0,
                    })
                }
                Node::Merge { arity, .. } | Node::Fork { arity, .. } if *arity < 2 => {
                    return Err(SynthError::BadArity {
                        node: node.name().to_string(),
                        arity: *arity,
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Lowers the graph into a structural [`ElasticIr`] netlist — stage
    /// one of elaboration.
    ///
    /// The lowering maps dataflow nodes onto the paper's primitives (ops
    /// become transforms/joins plus latency units, conditionals become
    /// branches/merges, the buffer policy inserts auto-MEBs) and then
    /// runs the standard pass pipeline: [`MebSubstitution::auto`]
    /// retargets the inserted buffers to `config.meb`/`config.arbiter`,
    /// and the protocol and cycle-cover lints verify the netlist — so a
    /// feedback loop with no buffer on it is rejected *here*, as a typed
    /// [`SynthError::Lint`], before any component is constructed.
    ///
    /// The returned [`SynthIr`] can be inspected (`ir.to_dot()`), costed
    /// (`Inventory::from_ir`), rewritten with further passes, and finally
    /// [`SynthIr::elaborate`]d into a runnable circuit.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthError`] for dangling wires, invalid arities, an
    /// empty graph, or a lint rejection.
    pub fn build_ir(self, config: SynthConfig) -> Result<SynthIr<T>, SynthError> {
        self.validate()?;
        let threads = self.threads;
        let mut ir = ElasticIr::<T>::new();

        // One channel per wire, plus an auto-buffer stage where the policy
        // asks for it. `wire_out[w]` is the channel the producer drives;
        // `wire_in[w]` is the channel the consumer reads.
        let n_wires = self.producer.len();
        let mut wire_out: Vec<Option<IrChannelId>> = vec![None; n_wires];
        let mut wire_in: Vec<Option<IrChannelId>> = vec![None; n_wires];
        for w in 0..n_wires {
            if self.dead_wires[w] {
                continue;
            }
            let (pnode, pport) = self.producer[w];
            let pname = self.nodes[pnode].name();
            let auto =
                config.buffers == BufferPolicy::AfterOps && self.nodes[pnode].wants_auto_buffer();
            let ch = ir.channel(format!("w{w}:{pname}.{pport}"), threads);
            if auto {
                let buffered = ir.channel(format!("w{w}:{pname}.{pport}:buf"), threads);
                // Placeholder microarchitecture; the meb-substitution pass
                // below retargets every `auto` buffer to `config.meb`.
                ir.add(
                    format!("autobuf:w{w}"),
                    IrNodeKind::Meb {
                        kind: MebKind::Reduced,
                        arbiter: config.arbiter,
                        initial: Vec::new(),
                        auto: true,
                    },
                    vec![ch],
                    vec![buffered],
                );
                wire_out[w] = Some(ch);
                wire_in[w] = Some(buffered);
            } else {
                wire_out[w] = Some(ch);
                wire_in[w] = Some(ch);
            }
        }
        let outc = |w: Wire| wire_out[w.0].expect("channel assigned");
        let inc = |w: Wire| wire_in[w.0].expect("channel assigned");

        let mut inputs: BTreeMap<String, String> = BTreeMap::new();
        let mut outputs: BTreeMap<String, (String, IrChannelId)> = BTreeMap::new();

        for (idx, node) in self.nodes.into_iter().enumerate() {
            if self.dead_nodes[idx] {
                continue;
            }
            let ins = &self.node_inputs[idx];
            // Output wires of this node, in port order.
            let outs: Vec<Wire> = (0..n_wires)
                .filter(|&w| !self.dead_wires[w] && self.producer[w].0 == idx)
                .map(Wire)
                .collect();
            match node {
                Node::Input { name } => {
                    let comp = format!("in:{name}");
                    ir.add(
                        comp.clone(),
                        IrNodeKind::Source,
                        vec![],
                        vec![outc(outs[0])],
                    );
                    inputs.insert(name, comp);
                }
                Node::Output { name } => {
                    let comp = format!("out:{name}");
                    let ch = inc(ins[0]);
                    ir.add(
                        comp.clone(),
                        IrNodeKind::Sink {
                            capture: true,
                            policy: ReadyPolicy::Always,
                        },
                        vec![ch],
                        vec![],
                    );
                    outputs.insert(name, (comp, ch));
                }
                Node::Op {
                    name,
                    arity,
                    f,
                    latency,
                } => {
                    let out_ch = outc(outs[0]);
                    // The joined/combined value either goes straight out
                    // (combinational) or through a latency unit.
                    let (combine_target, delay_src) = match latency {
                        OpLatency::Combinational => (out_ch, None),
                        _ => {
                            let mid = ir.channel(format!("{name}:joined"), threads);
                            (mid, Some(mid))
                        }
                    };
                    if arity == 1 {
                        ir.add(
                            format!("{name}:fn"),
                            IrNodeKind::Transform {
                                f: Box::new(move |t: &T| f(&[t])),
                            },
                            vec![inc(ins[0])],
                            vec![combine_target],
                        );
                    } else {
                        let chans: Vec<IrChannelId> = ins.iter().map(|&w| inc(w)).collect();
                        ir.add(
                            format!("{name}:join"),
                            IrNodeKind::Join { combine: f },
                            chans,
                            vec![combine_target],
                        );
                    }
                    if let Some(src) = delay_src {
                        let model = match latency {
                            OpLatency::Fixed(n) => LatencyModel::Fixed(n),
                            OpLatency::Variable { min, max, seed } => {
                                LatencyModel::Uniform { min, max, seed }
                            }
                            OpLatency::Combinational => unreachable!("handled above"),
                        };
                        ir.add(
                            format!("{name}:unit"),
                            IrNodeKind::VarLatency {
                                servers: threads.max(2),
                                model,
                                transform: None,
                            },
                            vec![src],
                            vec![out_ch],
                        );
                    }
                }
                Node::Branch { name, cond } => {
                    ir.add(
                        name,
                        IrNodeKind::Branch { cond },
                        vec![inc(ins[0])],
                        vec![outc(outs[0]), outc(outs[1])],
                    );
                }
                Node::Merge { name, .. } => {
                    let chans: Vec<IrChannelId> = ins.iter().map(|&w| inc(w)).collect();
                    ir.add(name, IrNodeKind::Merge, chans, vec![outc(outs[0])]);
                }
                Node::Fork { name, .. } => {
                    let chans: Vec<IrChannelId> = outs.iter().map(|&w| outc(w)).collect();
                    ir.add(
                        name,
                        IrNodeKind::Fork {
                            mode: ForkMode::Eager,
                            route: None,
                        },
                        vec![inc(ins[0])],
                        chans,
                    );
                }
                Node::Buffer {
                    name,
                    kind,
                    initial,
                } => {
                    ir.add(
                        name,
                        IrNodeKind::Meb {
                            kind,
                            arbiter: config.arbiter,
                            initial,
                            auto: false,
                        },
                        vec![inc(ins[0])],
                        vec![outc(outs[0])],
                    );
                }
                Node::Barrier { name } => {
                    ir.add(
                        name,
                        IrNodeKind::Barrier {
                            participants: None,
                            on_release: None,
                        },
                        vec![inc(ins[0])],
                        vec![outc(outs[0])],
                    );
                }
            }
        }

        PassManager::new()
            .with(MebSubstitution::auto(config.meb))
            .with(ProtocolLint)
            .with(CycleCoverLint)
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
    /// Returns a [`SynthError`] for dangling wires, invalid arities, an
    /// empty graph, a lint rejection (e.g. an unbuffered feedback loop),
    /// or (should the builder itself be buggy) an invalid netlist.
    pub fn elaborate(self, config: SynthConfig) -> Result<SynthCircuit<T>, SynthError> {
        self.build_ir(config)?.elaborate()
    }
}

/// Stage-one output of synthesis: the structural [`ElasticIr`] netlist
/// plus the external port bookkeeping needed to wrap the elaborated
/// circuit in a [`SynthCircuit`].
///
/// The IR is public — inspect it, render it (`synth.ir.to_dot()`), cost
/// it (`Inventory::from_ir(&synth.ir)`), or rewrite it with further
/// passes (e.g. [`MebSubstitution::named`] to retarget one buffer) before
/// elaborating.
pub struct SynthIr<T: Token> {
    /// The lowered netlist.
    pub ir: ElasticIr<T>,
    /// External input port → source component name.
    inputs: BTreeMap<String, String>,
    /// External output port → (sink component name, sink input channel).
    outputs: BTreeMap<String, (String, IrChannelId)>,
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
    /// Returns [`SynthError::Build`] when the netlist fails construction
    /// (ill-fitting ports, initial-token overflow, or circuit-builder
    /// rejection) — all conditions the lint passes in
    /// [`build_ir`](DataflowBuilder::build_ir) catch earlier with typed
    /// errors.
    pub fn elaborate(self) -> Result<SynthCircuit<T>, SynthError> {
        let elaborated = self
            .ir
            .elaborate()
            .map_err(|e| SynthError::Build(e.to_string()))?;
        let outputs: BTreeMap<String, (String, ChannelId)> = self
            .outputs
            .into_iter()
            .map(|(port, (comp, ch))| (port, (comp, elaborated.channel(ch))))
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
            .field("nodes", &self.nodes)
            .field("wires", &self.producer.len())
            .finish()
    }
}
