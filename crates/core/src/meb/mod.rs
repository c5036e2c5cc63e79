//! Multithreaded elastic buffers (paper, Sec. III and IV-A).
//!
//! Three microarchitectures share the MEB interface (a multithreaded input
//! channel, a multithreaded output channel, an internal arbiter). Two
//! types build them: the full MEB is a [`FifoMeb`] of depth 2.
//!
//! | built by           | storage         | behaviour                                   |
//! |--------------------|-----------------|---------------------------------------------|
//! | [`FifoMeb::full`]  | `2·S` slots     | paper Fig. 4 — an EB per thread             |
//! | [`ReducedMeb`]     | `S + 1` slots   | paper Fig. 6 — shared auxiliary register    |
//! | [`FifoMeb::new`]   | `depth·S` slots | ablation — private FIFOs, no shared storage |

mod fifo;
mod reduced;

pub use fifo::FifoMeb;
pub use reduced::ReducedMeb;

use elastic_sim::{ChannelId, Component, ProtocolError, Token};

use crate::arbiter::{Arbiter, ArbiterKind};

/// Selects a MEB microarchitecture by name, for sweeps and builders.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MebKind {
    /// The full MEB, one 2-slot EB per thread (paper Fig. 4):
    /// [`FifoMeb::full`], a private FIFO of depth 2 per thread.
    Full,
    /// [`ReducedMeb`]: S main registers + shared auxiliary (paper Fig. 6).
    Reduced,
    /// [`FifoMeb`] with the given per-thread depth.
    Fifo {
        /// Private FIFO depth per thread.
        depth: usize,
    },
}

impl MebKind {
    /// Instantiates the chosen MEB as a boxed component.
    pub fn build<T: Token>(
        self,
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        arbiter: Box<dyn Arbiter>,
    ) -> Box<dyn Component<T>> {
        match self {
            MebKind::Full => Box::new(FifoMeb::full(name, inp, out, threads, arbiter)),
            MebKind::Reduced => Box::new(ReducedMeb::new(name, inp, out, threads, arbiter)),
            MebKind::Fifo { depth } => {
                Box::new(FifoMeb::new(name, inp, out, threads, depth, arbiter))
            }
        }
    }

    /// Instantiates the chosen MEB pre-loaded with initial tokens (the
    /// dataflow "token on the back edge"; see the per-kind `with_initial`
    /// for capacity limits).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ExcessInitialTokens`] if the initial
    /// tokens exceed the kind's per-thread capacity.
    pub fn build_initial<T: Token>(
        self,
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        arbiter: Box<dyn Arbiter>,
        initial: Vec<(usize, T)>,
    ) -> Result<Box<dyn Component<T>>, ProtocolError> {
        Ok(match self {
            MebKind::Full => {
                Box::new(FifoMeb::full(name, inp, out, threads, arbiter).with_initial(initial)?)
            }
            MebKind::Reduced => {
                Box::new(ReducedMeb::new(name, inp, out, threads, arbiter).with_initial(initial)?)
            }
            MebKind::Fifo { depth } => Box::new(
                FifoMeb::new(name, inp, out, threads, depth, arbiter).with_initial(initial)?,
            ),
        })
    }

    /// Same, with a freshly built arbiter of the given kind.
    pub fn build_with<T: Token>(
        self,
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        arbiter: ArbiterKind,
    ) -> Box<dyn Component<T>> {
        self.build(name, inp, out, threads, arbiter.build())
    }

    /// Storage slots this MEB kind uses for `threads` threads.
    pub fn slots(self, threads: usize) -> usize {
        match self {
            MebKind::Full => 2 * threads,
            MebKind::Reduced => threads + 1,
            MebKind::Fifo { depth } => depth * threads,
        }
    }
}

impl std::fmt::Display for MebKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MebKind::Full => write!(f, "full"),
            MebKind::Reduced => write!(f, "reduced"),
            MebKind::Fifo { depth } => write!(f, "fifo({depth})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_match_the_paper() {
        // Sec. III-A: full = 2S, reduced = S+1.
        assert_eq!(MebKind::Full.slots(8), 16);
        assert_eq!(MebKind::Reduced.slots(8), 9);
        assert_eq!(MebKind::Fifo { depth: 3 }.slots(4), 12);
    }

    #[test]
    fn initial_tokens_are_delivered_first() {
        use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};
        for kind in [MebKind::Full, MebKind::Reduced, MebKind::Fifo { depth: 2 }] {
            let mut b = CircuitBuilder::<Tagged>::new();
            let a = b.channel("a", 2);
            let c = b.channel("c", 2);
            let mut src = Source::new("src", a, 2);
            src.push(0, Tagged::new(0, 10, 10));
            src.push(1, Tagged::new(1, 10, 10));
            b.add(src);
            b.add_boxed(
                kind.build_initial::<Tagged>(
                    "meb",
                    a,
                    c,
                    2,
                    ArbiterKind::RoundRobin.build(),
                    vec![(0, Tagged::new(0, 0, 0)), (1, Tagged::new(1, 0, 0))],
                )
                .expect("initial tokens fit"),
            );
            b.add(Sink::with_capture("snk", c, 2, ReadyPolicy::Always));
            let mut circuit = b.build().expect("valid");
            circuit.run(12).expect("clean");
            let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
            for t in 0..2 {
                let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
                assert_eq!(seqs, vec![0, 10], "{kind} thread {t}: initial token first");
            }
        }
    }

    #[test]
    fn reduced_rejects_two_initial_tokens_per_thread() {
        use elastic_sim::CircuitBuilder;
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let err = crate::meb::ReducedMeb::<u64>::new("m", a, c, 1, ArbiterKind::Fixed.build())
            .with_initial(vec![(0, 1), (0, 2)])
            .err()
            .expect("second token must be rejected");
        assert_eq!(
            err,
            ProtocolError::ExcessInitialTokens {
                thread: 0,
                capacity: 1
            }
        );
    }

    #[test]
    fn build_initial_rejects_excess_tokens_per_kind() {
        use elastic_sim::CircuitBuilder;
        for (kind, capacity) in [
            (MebKind::Full, 2),
            (MebKind::Reduced, 1),
            (MebKind::Fifo { depth: 3 }, 3),
        ] {
            let mut b = CircuitBuilder::<u64>::new();
            let a = b.channel("a", 1);
            let c = b.channel("c", 1);
            let too_many: Vec<(usize, u64)> = (0..=capacity as u64).map(|i| (0, i)).collect();
            let err = kind
                .build_initial::<u64>("m", a, c, 1, ArbiterKind::Fixed.build(), too_many)
                .err()
                .expect("overflow must be rejected");
            assert_eq!(
                err,
                ProtocolError::ExcessInitialTokens {
                    thread: 0,
                    capacity
                },
                "{kind}"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(MebKind::Full.to_string(), "full");
        assert_eq!(MebKind::Reduced.to_string(), "reduced");
        assert_eq!(MebKind::Fifo { depth: 2 }.to_string(), "fifo(2)");
    }
}
