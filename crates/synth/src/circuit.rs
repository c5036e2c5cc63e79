//! The elaborated circuit with named external ports.

use std::collections::BTreeMap;

use elastic_sim::{ChannelId, Circuit, SimError, Sink, Source, Token};

/// Error for operations on a port name the graph does not define.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownPortError {
    /// The unknown name.
    pub port: String,
    /// Names that do exist (for the error message).
    pub available: Vec<String>,
}

impl std::fmt::Display for UnknownPortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown port `{}` (available: {:?})",
            self.port, self.available
        )
    }
}

impl std::error::Error for UnknownPortError {}

/// Errors from driving a [`SynthCircuit`].
#[derive(Debug)]
pub enum RunError {
    /// A named port does not exist.
    UnknownPort(UnknownPortError),
    /// The simulation failed.
    Sim(SimError),
    /// The requested output count did not arrive within the cycle budget.
    Timeout {
        /// Budget that was exhausted.
        max_cycles: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownPort(e) => write!(f, "{e}"),
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::Timeout { max_cycles } => {
                write!(f, "outputs did not arrive within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::UnknownPort(e) => Some(e),
            RunError::Sim(e) => Some(e),
            RunError::Timeout { .. } => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A synthesized elastic circuit with named input/output ports.
///
/// Produced by
/// [`DataflowBuilder::elaborate`](crate::DataflowBuilder::elaborate).
pub struct SynthCircuit<T: Token> {
    /// The underlying simulated netlist (full kernel API available:
    /// tracing, statistics, stepping).
    pub circuit: Circuit<T>,
    threads: usize,
    inputs: BTreeMap<String, String>,
    outputs: BTreeMap<String, (String, ChannelId)>,
}

impl<T: Token> SynthCircuit<T> {
    pub(crate) fn new(
        circuit: Circuit<T>,
        threads: usize,
        inputs: BTreeMap<String, String>,
        outputs: BTreeMap<String, (String, ChannelId)>,
    ) -> Self {
        Self {
            circuit,
            threads,
            inputs,
            outputs,
        }
    }

    /// Thread count of every port.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Names of the input ports.
    pub fn input_ports(&self) -> Vec<String> {
        self.inputs.keys().cloned().collect()
    }

    /// Names of the output ports.
    pub fn output_ports(&self) -> Vec<String> {
        self.outputs.keys().cloned().collect()
    }

    fn unknown(&self, port: &str, inputs: bool) -> RunError {
        RunError::UnknownPort(UnknownPortError {
            port: port.to_string(),
            available: if inputs {
                self.input_ports()
            } else {
                self.output_ports()
            },
        })
    }

    /// Queues `token` for `thread` on input port `port`.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownPort`] if the port does not exist.
    pub fn push(&mut self, port: &str, thread: usize, token: T) -> Result<(), RunError> {
        let comp = self
            .inputs
            .get(port)
            .ok_or_else(|| self.unknown(port, true))?
            .clone();
        let src: &mut Source<T> = self.circuit.get_mut(&comp).expect("input component exists");
        src.push(thread, token);
        Ok(())
    }

    /// Queues `token` for `thread` on input port `port`, released no
    /// earlier than `cycle`.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownPort`] if the port does not exist.
    pub fn push_at(
        &mut self,
        port: &str,
        thread: usize,
        cycle: u64,
        token: T,
    ) -> Result<(), RunError> {
        let comp = self
            .inputs
            .get(port)
            .ok_or_else(|| self.unknown(port, true))?
            .clone();
        let src: &mut Source<T> = self.circuit.get_mut(&comp).expect("input component exists");
        src.push_at(thread, cycle, token);
        Ok(())
    }

    /// Tokens collected so far on output `port` for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist (use [`output_ports`] to check).
    ///
    /// [`output_ports`]: SynthCircuit::output_ports
    pub fn collected(&self, port: &str, thread: usize) -> Vec<T> {
        let (comp, _) = self.outputs.get(port).unwrap_or_else(|| {
            panic!(
                "unknown output port `{port}` (available: {:?})",
                self.output_ports()
            )
        });
        let sink: &Sink<T> = self.circuit.get(comp).expect("output component exists");
        sink.captured(thread)
            .iter()
            .map(|(_, t)| t.clone())
            .collect()
    }

    /// Steps the circuit until output `port` has collected `count` tokens
    /// in total, or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownPort`], [`RunError::Timeout`] or a propagated
    /// [`RunError::Sim`].
    pub fn run_until_outputs(
        &mut self,
        port: &str,
        count: u64,
        max_cycles: u64,
    ) -> Result<(), RunError> {
        let (_, ch) = *self
            .outputs
            .get(port)
            .ok_or_else(|| self.unknown(port, false))?;
        let done = self
            .circuit
            .run_until(max_cycles, move |c| c.stats().total_transfers(ch) >= count)?;
        if done {
            Ok(())
        } else {
            Err(RunError::Timeout { max_cycles })
        }
    }
}

impl<T: Token> std::fmt::Debug for SynthCircuit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthCircuit")
            .field("threads", &self.threads)
            .field("inputs", &self.input_ports())
            .field("outputs", &self.output_ports())
            .finish()
    }
}
