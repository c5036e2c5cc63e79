//! Circuit construction and structural validation.

use crate::channel::{ChannelId, ChannelSpec, ChannelState};
use crate::circuit::Circuit;
use crate::component::{Component, Ports};
use crate::error::BuildError;
use crate::rank::compute_schedule;
use crate::token::Token;

/// Incrementally wires channels and components into a [`Circuit`].
///
/// Channels are created first (so their ids can be passed to component
/// constructors), then components are added; [`build`](CircuitBuilder::build)
/// validates that every channel has exactly one driver and one reader.
///
/// Building validates the netlist and compiles the levelized rank
/// schedule. A driver that runs many points on one structure can keep
/// the built circuit and rewind it with [`Circuit::reset`] between points
/// instead of re-running the builder.
///
/// # Examples
///
/// ```
/// use elastic_sim::{CircuitBuilder, Source, Sink, ReadyPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let ch = b.channel("wire", 1);
/// let mut src = Source::new("src", ch, 1);
/// src.push(0, 7u64);
/// b.add(src);
/// b.add(Sink::with_capture("snk", ch, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(3)?;
/// # Ok(())
/// # }
/// ```
pub struct CircuitBuilder<T: Token> {
    specs: Vec<ChannelSpec>,
    components: Vec<Box<dyn Component<T>>>,
}

impl<T: Token> Default for CircuitBuilder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Token> CircuitBuilder<T> {
    /// An empty builder.
    pub fn new() -> Self {
        Self {
            specs: Vec::new(),
            components: Vec::new(),
        }
    }

    /// Declares a channel supporting `threads` concurrent threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn channel(&mut self, name: impl Into<String>, threads: usize) -> ChannelId {
        assert!(threads > 0, "a channel must support at least one thread");
        let id = ChannelId(self.specs.len());
        self.specs.push(ChannelSpec {
            name: name.into(),
            threads,
        });
        id
    }

    /// Declares `n` channels named `prefix0`, `prefix1`, … (handy for
    /// pipelines).
    pub fn channels(&mut self, prefix: &str, threads: usize, n: usize) -> Vec<ChannelId> {
        (0..n)
            .map(|i| self.channel(format!("{prefix}{i}"), threads))
            .collect()
    }

    /// Adds a component.
    pub fn add(&mut self, component: impl Component<T> + 'static) {
        self.components.push(Box::new(component));
    }

    /// Adds an already boxed component (e.g. one produced by a factory
    /// that selects the concrete type at runtime).
    pub fn add_boxed(&mut self, component: Box<dyn Component<T>>) {
        self.components.push(component);
    }

    /// Validates the netlist, compiles the rank schedule and produces a
    /// runnable [`Circuit`].
    ///
    /// Components are permuted into levelized rank order: every component
    /// evaluates after everything it combinationally depends on, as
    /// declared through [`Component::comb_paths`], so an acyclic net
    /// settles in one sweep. Components of one rank level keep the order
    /// they were added in.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when a channel is undriven/unread, driven
    /// or read more than once, a component references an unknown channel,
    /// a combinational-path declaration is malformed, the declared paths
    /// form an undamped combinational cycle
    /// ([`BuildError::CombinationalLoop`], naming the components on the
    /// cycle), or the circuit is empty.
    pub fn build(self) -> Result<Circuit<T>, BuildError> {
        if self.components.is_empty() {
            return Err(BuildError::Empty);
        }
        let n_ch = self.specs.len();
        let ports: Vec<Ports> = self.components.iter().map(|c| c.ports()).collect();
        // Per channel: (first component listing it, how many listings).
        let mut drivers = vec![(0usize, 0usize); n_ch];
        let mut readers = vec![(0usize, 0usize); n_ch];
        for (i, (comp, ports)) in self.components.iter().zip(&ports).enumerate() {
            for (list, table) in [
                (&ports.outputs, &mut drivers),
                (&ports.inputs, &mut readers),
            ] {
                for ch in list {
                    let Some((first, count)) = table.get_mut(ch.0) else {
                        return Err(BuildError::UnknownChannel {
                            component: comp.name().to_string(),
                        });
                    };
                    if *count == 0 {
                        *first = i;
                    }
                    *count += 1;
                }
            }
        }

        // Every component listing `ch` in `list`, once per listing, in
        // insertion order.
        let listing = |ch: usize, list: fn(&Ports) -> &Vec<ChannelId>| -> Vec<String> {
            self.components
                .iter()
                .zip(&ports)
                .flat_map(|(comp, ports)| {
                    list(ports)
                        .iter()
                        .filter(move |c| c.0 == ch)
                        .map(|_| comp.name().to_string())
                })
                .collect()
        };
        let mut driver = Vec::with_capacity(n_ch);
        let mut reader = Vec::with_capacity(n_ch);
        for (ci, spec) in self.specs.iter().enumerate() {
            match drivers[ci] {
                (_, 0) => {
                    return Err(BuildError::NoDriver {
                        channel: spec.name.clone(),
                    })
                }
                (d, 1) => driver.push(d),
                _ => {
                    return Err(BuildError::MultipleDrivers {
                        channel: spec.name.clone(),
                        drivers: listing(ci, |p| &p.outputs),
                    })
                }
            }
            match readers[ci] {
                (_, 0) => {
                    return Err(BuildError::NoReader {
                        channel: spec.name.clone(),
                    })
                }
                (r, 1) => reader.push(r),
                _ => {
                    return Err(BuildError::MultipleReaders {
                        channel: spec.name.clone(),
                        readers: listing(ci, |p| &p.inputs),
                    })
                }
            }
        }

        let schedule = compute_schedule(&self.components, &ports, &self.specs, &driver, &reader)?;

        // Permute components into schedule order and remap the wake
        // tables: driver/reader values are component indices, so they are
        // rewritten through the inverse permutation. Channel ids are
        // untouched.
        let n = self.components.len();
        let mut inv = vec![0usize; n];
        for (k, &old) in schedule.order.iter().enumerate() {
            inv[old] = k;
        }
        let mut slots: Vec<Option<Box<dyn Component<T>>>> =
            self.components.into_iter().map(Some).collect();
        let components: Vec<Box<dyn Component<T>>> = schedule
            .order
            .iter()
            .map(|&old| slots[old].take().expect("order is a permutation"))
            .collect();
        let driver: Vec<usize> = driver.into_iter().map(|d| inv[d]).collect();
        let reader: Vec<usize> = reader.into_iter().map(|r| inv[r]).collect();

        let channels = self.specs.into_iter().map(ChannelState::new).collect();
        Ok(Circuit::from_parts(
            components, channels, driver, reader, schedule,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{EvalCtx, TickCtx};

    struct Stub {
        name: String,
        ports: Ports,
    }

    impl Component<u64> for Stub {
        fn name(&self) -> &str {
            &self.name
        }
        fn ports(&self) -> Ports {
            self.ports.clone()
        }
        // The stub's eval reads nothing, so the conservative default
        // (which would see every stub pair as a strict cycle) is wrong
        // here: declare no combinational paths.
        fn comb_paths(&self) -> Vec<crate::component::CombPath> {
            Vec::new()
        }
        fn eval(&mut self, _ctx: &mut EvalCtx<'_, u64>) {}
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        crate::impl_as_any!();
    }

    fn stub(name: &str, inputs: Vec<ChannelId>, outputs: Vec<ChannelId>) -> Stub {
        Stub {
            name: name.into(),
            ports: Ports { inputs, outputs },
        }
    }

    #[test]
    fn valid_netlist_builds() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(stub("p", vec![], vec![ch]));
        b.add(stub("q", vec![ch], vec![]));
        assert!(b.build().is_ok());
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let b = CircuitBuilder::<u64>::new();
        assert_eq!(b.build().err(), Some(BuildError::Empty));
    }

    #[test]
    fn undriven_channel_is_rejected() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        b.add(stub("q", vec![ch], vec![]));
        assert_eq!(
            b.build().err(),
            Some(BuildError::NoDriver {
                channel: "c".into()
            })
        );
    }

    #[test]
    fn unread_channel_is_rejected() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        b.add(stub("p", vec![], vec![ch]));
        assert_eq!(
            b.build().err(),
            Some(BuildError::NoReader {
                channel: "c".into()
            })
        );
    }

    /// A shared channel's report names every component listing it, in
    /// insertion order, once per listing.
    #[test]
    fn double_driver_is_rejected() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        b.add(stub("p1", vec![], vec![ch]));
        b.add(stub("q", vec![ch], vec![]));
        b.add(stub("p2", vec![], vec![ch, ch]));
        match b.build().err() {
            Some(BuildError::MultipleDrivers { channel, drivers }) => {
                assert_eq!(channel, "c");
                assert_eq!(drivers, ["p1", "p2", "p2"]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn double_reader_is_rejected() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        b.add(stub("q1", vec![ch, ch], vec![]));
        b.add(stub("p", vec![], vec![ch]));
        b.add(stub("q2", vec![ch], vec![]));
        match b.build().err() {
            Some(BuildError::MultipleReaders { channel, readers }) => {
                assert_eq!(channel, "c");
                assert_eq!(readers, ["q1", "q1", "q2"]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A reference to a channel that does not exist is reported before
    /// any channel's driver or reader count.
    #[test]
    fn unknown_channel_is_rejected() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        b.add(stub("q", vec![ch], vec![]));
        b.add(stub("p", vec![], vec![ChannelId(5)]));
        assert_eq!(
            b.build().err(),
            Some(BuildError::UnknownChannel {
                component: "p".into()
            })
        );
    }

    #[test]
    fn channels_helper_names_sequentially() {
        let mut b = CircuitBuilder::<u64>::new();
        let chs = b.channels("st", 4, 3);
        assert_eq!(chs.len(), 3);
        // Wire them so build succeeds and names can be checked.
        b.add(stub("p", vec![], chs.clone()));
        b.add(stub("q", chs.clone(), vec![]));
        let c = b.build().expect("valid");
        assert_eq!(c.channel_name(chs[1]), "st1");
    }
}
