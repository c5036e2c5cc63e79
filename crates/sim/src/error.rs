//! Error types for circuit construction and simulation.

use std::error::Error;
use std::fmt;

/// Errors detected while wiring a circuit with
/// [`CircuitBuilder`](crate::CircuitBuilder).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A channel is read by a component but never driven.
    NoDriver {
        /// Name of the undriven channel.
        channel: String,
    },
    /// Two components both list the channel among their outputs.
    MultipleDrivers {
        /// Name of the multiply-driven channel.
        channel: String,
        /// Names of the conflicting driver components.
        drivers: Vec<String>,
    },
    /// A channel is driven but no component reads it.
    NoReader {
        /// Name of the unread channel.
        channel: String,
    },
    /// Two components both list the channel among their inputs.
    MultipleReaders {
        /// Name of the multiply-read channel.
        channel: String,
        /// Names of the conflicting reader components.
        readers: Vec<String>,
    },
    /// A component references a channel id that the builder never created.
    UnknownChannel {
        /// Name of the offending component.
        component: String,
    },
    /// A component declared a combinational path
    /// ([`Component::comb_paths`](crate::Component::comb_paths)) over a
    /// channel that is not in the matching port list (a `ValidToValid`
    /// `from` must be one of its inputs, a `ReadyToReady` `to` likewise,
    /// and so on).
    InvalidCombPath {
        /// Name of the offending component.
        component: String,
        /// Name of the mis-declared channel.
        channel: String,
    },
    /// The handshake network contains a combinational cycle in which no
    /// edge is registered or hysteretically damped: the settle loop could
    /// never converge, so the netlist is rejected before it runs. This is
    /// exactly the class of circuit elastic design forbids — cut the cycle
    /// with an elastic buffer (the EB registers both handshake
    /// directions).
    CombinationalLoop {
        /// Names of the components whose declared paths form the cycle,
        /// in insertion order.
        components: Vec<String>,
    },
    /// The circuit contains no components.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoDriver { channel } => {
                write!(f, "channel `{channel}` has no driver")
            }
            BuildError::MultipleDrivers { channel, drivers } => {
                write!(f, "channel `{channel}` has multiple drivers: {drivers:?}")
            }
            BuildError::NoReader { channel } => {
                write!(f, "channel `{channel}` has no reader")
            }
            BuildError::MultipleReaders { channel, readers } => {
                write!(f, "channel `{channel}` has multiple readers: {readers:?}")
            }
            BuildError::UnknownChannel { component } => {
                write!(
                    f,
                    "component `{component}` references an unknown channel id"
                )
            }
            BuildError::InvalidCombPath { component, channel } => {
                write!(
                    f,
                    "component `{component}` declared a combinational path over \
                     channel `{channel}` outside the matching port list"
                )
            }
            BuildError::CombinationalLoop { components } => {
                write!(
                    f,
                    "combinational loop through components [{}]: every handshake \
                     path in the cycle is zero-latency (insert an elastic buffer \
                     to cut the cycle)",
                    components
                        .iter()
                        .map(|c| format!("`{c}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            BuildError::Empty => write!(f, "circuit contains no components"),
        }
    }
}

impl Error for BuildError {}

/// A local fault detected inside a component — a handshake-protocol
/// violation, or a token the component cannot process (an out-of-range
/// address, an undecodable instruction). The typed replacement for the
/// `panic!`s that used to live in the elastic-buffer FSMs of
/// `elastic-core` and the processor's stages.
///
/// Construction-time checks (e.g. seeding a buffer with more initial
/// tokens than it can hold) return this directly; run-time faults are
/// reported at the clock edge through
/// [`TickCtx::fault`](crate::TickCtx::fault) and surfaced as
/// [`SimError::Component`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// A dequeue fired while the buffer was empty.
    BufferUnderflow,
    /// An enqueue fired while the buffer was full.
    BufferOverflow,
    /// More initial tokens were supplied for a thread than its storage
    /// can hold.
    ExcessInitialTokens {
        /// Thread whose initial tokens overflowed.
        thread: usize,
        /// Per-thread capacity of the storage.
        capacity: usize,
    },
    /// An initial token names a thread the storage does not have.
    InitialTokenThread {
        /// The out-of-range thread index.
        thread: usize,
        /// Thread count of the storage.
        threads: usize,
    },
    /// A routing fork's route function returned a mask that selects no
    /// output or names an output the fork does not have; the offered
    /// token could never be consumed.
    InvalidRoute {
        /// The returned output bitmask (bit `o` = output `o`).
        mask: u64,
        /// Number of outputs of the fork.
        outputs: usize,
    },
    /// A memory access named an address outside the memory; the access
    /// was not performed.
    AddressOutOfRange {
        /// The requested word address.
        addr: u32,
        /// Size of the memory in words.
        words: usize,
    },
    /// An instruction word does not decode; the instruction was not
    /// executed.
    InvalidInstruction {
        /// Program counter the word was fetched from.
        pc: u32,
        /// The undecodable word.
        word: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BufferUnderflow => {
                write!(f, "protocol violation: dequeue from an empty buffer")
            }
            ProtocolError::BufferOverflow => {
                write!(f, "protocol violation: enqueue into a full buffer")
            }
            ProtocolError::ExcessInitialTokens { thread, capacity } => write!(
                f,
                "thread {thread} given more initial tokens than its capacity ({capacity})"
            ),
            ProtocolError::InitialTokenThread { thread, threads } => write!(
                f,
                "initial token for thread {thread} of a {threads}-thread buffer"
            ),
            ProtocolError::InvalidRoute { mask, outputs } => write!(
                f,
                "route mask {mask:#b} selects no output of a {outputs}-output fork \
                 or an output it does not have"
            ),
            ProtocolError::AddressOutOfRange { addr, words } => {
                write!(f, "address {addr:#x} is outside the {words}-word memory")
            }
            ProtocolError::InvalidInstruction { pc, word } => {
                write!(f, "invalid instruction word {word:#010x} at pc {pc}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// Errors raised while stepping a [`Circuit`](crate::Circuit).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The combinational fixed-point did not converge within the iteration
    /// cap. All-strict combinational cycles are rejected at build time
    /// ([`BuildError::CombinationalLoop`]); this runtime variant remains
    /// only as a safety net for cycles through *damped* hysteretic paths
    /// (whose convergence relies on the declaring components honouring
    /// their damping guarantee) — it is unreachable for acyclic nets.
    CombinationalLoop {
        /// Cycle at which the divergence was detected.
        cycle: u64,
        /// Number of settle iterations attempted.
        iterations: usize,
    },
    /// More than one `valid(i)` was asserted on a multithreaded channel in
    /// the same cycle, violating the MT-elastic channel invariant (Sec. III
    /// of the paper: "only one valid(i) signal is asserted per cycle").
    ChannelInvariant {
        /// Cycle of the violation.
        cycle: u64,
        /// Name of the offending channel.
        channel: String,
        /// The thread indices whose valid bits were simultaneously high.
        threads: Vec<usize>,
    },
    /// A channel asserted `valid` without driving any data.
    MissingData {
        /// Cycle of the violation.
        cycle: u64,
        /// Name of the offending channel.
        channel: String,
        /// Thread whose valid bit was high.
        thread: usize,
    },
    /// A component latched a local protocol fault during its clock edge
    /// (e.g. an elastic-buffer FSM asked to dequeue while empty). The
    /// kernel collects faults after every tick phase.
    Component {
        /// Cycle whose clock edge faulted.
        cycle: u64,
        /// Name of the faulting component.
        component: String,
        /// The latched fault.
        error: ProtocolError,
    },
    /// The circuit made no transfer for a configured number of consecutive
    /// cycles while at least one token was being offered (watchdog; see
    /// [`Circuit::set_deadlock_watchdog`](crate::Circuit::set_deadlock_watchdog)).
    ///
    /// The report names the blocked handshakes so a deadlock in a deep
    /// netlist (MD5 loop, processor pipeline) can be localized from the
    /// error alone instead of re-running with tracing on.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Number of consecutive transfer-free cycles observed.
        idle_cycles: u64,
        /// Cycle of the last fired transfer anywhere in the circuit, or
        /// `None` when nothing ever moved.
        last_progress: Option<u64>,
        /// The blocked handshakes at the moment the watchdog fired: every
        /// `(channel name, thread)` whose `valid` was asserted with
        /// `ready` low.
        stalled: Vec<(String, usize)>,
    },
    /// [`Circuit::reset`](crate::Circuit::reset) was asked to rewind a
    /// circuit containing a component whose
    /// [`Component::reset`](crate::Component::reset) reports no support
    /// (the conservative default). Reuse such a circuit by rebuilding it
    /// instead, or implement `reset` for the named component.
    ResetUnsupported {
        /// Evaluation-order index of the component that cannot rewind
        /// (useful when several instances share a name prefix, and to
        /// locate the node in schedule/netlist dumps).
        index: usize,
        /// Name of the component that cannot rewind.
        component: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombinationalLoop { cycle, iterations } => write!(
                f,
                "combinational loop: handshake network failed to settle at cycle {cycle} \
                 after {iterations} iterations (insert an elastic buffer to cut the cycle)"
            ),
            SimError::ChannelInvariant {
                cycle,
                channel,
                threads,
            } => write!(
                f,
                "MT channel invariant violated on `{channel}` at cycle {cycle}: \
                 valid asserted for threads {threads:?} simultaneously"
            ),
            SimError::MissingData {
                cycle,
                channel,
                thread,
            } => write!(
                f,
                "channel `{channel}` asserted valid({thread}) without data at cycle {cycle}"
            ),
            SimError::Component {
                cycle,
                component,
                error,
            } => write!(
                f,
                "component `{component}` faulted at cycle {cycle}: {error}"
            ),
            SimError::Deadlock {
                cycle,
                idle_cycles,
                last_progress,
                stalled,
            } => {
                write!(
                    f,
                    "deadlock watchdog fired at cycle {cycle}: no transfer for {idle_cycles} cycles"
                )?;
                match last_progress {
                    Some(p) => write!(f, " (last progress at cycle {p})")?,
                    None => write!(f, " (no transfer ever fired)")?,
                }
                if !stalled.is_empty() {
                    let names: Vec<String> = stalled
                        .iter()
                        .map(|(ch, t)| format!("`{ch}`[{t}]"))
                        .collect();
                    write!(f, "; blocked: {}", names.join(", "))?;
                }
                Ok(())
            }
            SimError::ResetUnsupported { index, component } => write!(
                f,
                "component `{component}` (evaluation index {index}) does not support \
                 reset (rebuild the circuit instead of reusing it)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildError::NoDriver {
            channel: "ch0".into(),
        };
        assert_eq!(e.to_string(), "channel `ch0` has no driver");

        let e = SimError::ChannelInvariant {
            cycle: 3,
            channel: "bus".into(),
            threads: vec![0, 2],
        };
        let msg = e.to_string();
        assert!(msg.contains("bus"));
        assert!(msg.contains("[0, 2]"));
    }

    #[test]
    fn combinational_loop_build_error_names_components() {
        let e = BuildError::CombinationalLoop {
            components: vec!["not".into(), "wire".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("`not`"), "{msg}");
        assert!(msg.contains("`wire`"), "{msg}");
        assert!(msg.contains("elastic buffer"), "{msg}");

        let e = BuildError::InvalidCombPath {
            component: "fork0".into(),
            channel: "bus".into(),
        };
        assert!(e.to_string().contains("`fork0`"));
        assert!(e.to_string().contains("`bus`"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<BuildError>();
        assert_err::<SimError>();
        assert_err::<ProtocolError>();
    }

    #[test]
    fn deadlock_names_blocked_channels() {
        let e = SimError::Deadlock {
            cycle: 42,
            idle_cycles: 10,
            last_progress: Some(32),
            stalled: vec![("into_buf".into(), 1), ("obuf".into(), 0)],
        };
        let msg = e.to_string();
        assert!(msg.contains("cycle 42"), "{msg}");
        assert!(msg.contains("last progress at cycle 32"), "{msg}");
        assert!(msg.contains("`into_buf`[1]"), "{msg}");
        assert!(msg.contains("`obuf`[0]"), "{msg}");

        let never = SimError::Deadlock {
            cycle: 9,
            idle_cycles: 9,
            last_progress: None,
            stalled: Vec::new(),
        };
        assert!(never.to_string().contains("no transfer ever fired"));
    }

    #[test]
    fn reset_unsupported_names_component_and_index() {
        let e = SimError::ResetUnsupported {
            index: 3,
            component: "romgen".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`romgen`"), "{msg}");
        assert!(msg.contains("index 3"), "{msg}");
    }

    #[test]
    fn protocol_errors_display() {
        assert!(ProtocolError::BufferUnderflow.to_string().contains("empty"));
        assert!(ProtocolError::BufferOverflow.to_string().contains("full"));
        let e = ProtocolError::ExcessInitialTokens {
            thread: 3,
            capacity: 2,
        };
        assert!(e.to_string().contains("thread 3"));
        let r = ProtocolError::InvalidRoute {
            mask: 0b100,
            outputs: 2,
        };
        assert!(r.to_string().contains("0b100"), "{r}");
        let a = ProtocolError::AddressOutOfRange {
            addr: 0xFFFF_FFFF,
            words: 16,
        };
        assert!(a.to_string().contains("0xffffffff"), "{a}");
        let i = ProtocolError::InvalidInstruction {
            pc: 3,
            word: 0x7000_0000,
        };
        assert!(i.to_string().contains("0x70000000"), "{i}");
        let s = SimError::Component {
            cycle: 7,
            component: "eb0".into(),
            error: ProtocolError::BufferUnderflow,
        };
        assert!(s.to_string().contains("eb0"));
        assert!(s.to_string().contains("cycle 7"));
    }
}
