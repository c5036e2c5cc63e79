//! Join: synchronized convergence of two or more channels (paper, Fig. 3
//! and Fig. 7(a)).
//!
//! A join fires only when **all** inputs offer valid data *for the same
//! thread* and the output is ready; all inputs are consumed in the same
//! cycle. The multithreaded M-Join is, per the paper, the baseline join
//! replicated per thread — here expressed directly by evaluating the join
//! condition thread-wise over multithreaded channels.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports, TickCtx,
    Token,
};

/// An N-input join with a combine function.
///
/// For thread `t`: `valid_out(t) = ∧ᵢ valid_i(t)` and
/// `ready_i(t) = ready_out(t) ∧ ∧_{j≠i} valid_j(t)` — the classic lazy
/// (SELF) join control.
///
/// # Examples
///
/// A 2-input adder join:
///
/// ```
/// use elastic_core::Join;
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let x = b.channel("x", 1);
/// let y = b.channel("y", 1);
/// let z = b.channel("z", 1);
/// let mut sx = Source::new("sx", x, 1);
/// sx.extend(0, [1, 2, 3]);
/// let mut sy = Source::new("sy", y, 1);
/// sy.extend(0, [10, 20, 30]);
/// b.add(sx);
/// b.add(sy);
/// b.add(Join::new("add", vec![x, y], z, 1, |ins| ins[0] + ins[1]));
/// b.add(Sink::with_capture("snk", z, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(6)?;
/// let snk: &Sink<u64> = circuit.get("snk").expect("sink");
/// let sums: Vec<u64> = snk.captured(0).iter().map(|(_, v)| *v).collect();
/// assert_eq!(sums, vec![11, 22, 33]);
/// # Ok(())
/// # }
/// ```
pub struct Join<T: Token> {
    name: String,
    inputs: Vec<ChannelId>,
    out: ChannelId,
    threads: usize,
    combine: CombineFn<T>,
}

/// N-ary combine function of a [`Join`].
type CombineFn<T> = Box<dyn Fn(&[&T]) -> T + Send>;

impl<T: Token> Join<T> {
    /// A join of `inputs` into `out`, combining the input tokens with `f`
    /// (`f` receives one token per input, in input order).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<ChannelId>,
        out: ChannelId,
        threads: usize,
        f: impl Fn(&[&T]) -> T + Send + 'static,
    ) -> Self {
        assert!(inputs.len() >= 2, "a join needs at least two inputs");
        Self {
            name: name.into(),
            inputs,
            out,
            threads,
            combine: Box::new(f),
        }
    }
}

impl<T: Token> Component<T> for Join<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Join
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new(self.inputs.clone(), [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // valid(out) = ∧ valid(in_i); ready(in_i) = ready(out) ∧ every
        // *other* input's valid (never its own — that self-loop is what
        // the SELF join control avoids).
        let mut paths = Vec::new();
        for (i, &ch) in self.inputs.iter().enumerate() {
            paths.push(CombPath::ValidToValid {
                from: ch,
                to: self.out,
            });
            paths.push(CombPath::ReadyToReady {
                from: self.out,
                to: ch,
            });
            for (j, &other) in self.inputs.iter().enumerate() {
                if j != i {
                    paths.push(CombPath::ValidToReady {
                        from: other,
                        to: ch,
                    });
                }
            }
        }
        paths
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        for t in 0..self.threads {
            let all_valid = self.inputs.iter().all(|&ch| ctx.valid(ch, t));
            ctx.set_valid(self.out, t, all_valid);
            for (i, &ch) in self.inputs.iter().enumerate() {
                let others_valid = self
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .all(|(_, &o)| ctx.valid(o, t));
                ctx.set_ready(ch, t, ctx.ready(self.out, t) && others_valid);
            }
        }
        // Data: combine when every input carries a token for one common
        // thread; otherwise leave the bus idle.
        let joined = (0..self.threads).find(|&t| self.inputs.iter().all(|&ch| ctx.valid(ch, t)));
        let data = joined.and_then(|_| {
            let items: Option<Vec<&T>> = self.inputs.iter().map(|&ch| ctx.data(ch)).collect();
            items.map(|refs| (self.combine)(&refs))
        });
        ctx.set_data(self.out, data);
    }

    fn tick(&mut self, _ctx: &TickCtx<'_, T>) {}

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    fn reset(&mut self) -> bool {
        true // stateless
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::meb::{MebKind, ReducedMeb};
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    /// Join with one side starved: nothing fires until the late side
    /// delivers; no token is lost or duplicated.
    #[test]
    fn join_waits_for_the_late_input() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y = b.channel("y", 1);
        let z = b.channel("z", 1);
        let mut sx = Source::new("sx", x, 1);
        sx.extend(0, [1, 2]);
        let mut sy = Source::new("sy", y, 1);
        sy.push_at(0, 5, 100);
        sy.push_at(0, 9, 200);
        b.add(sx);
        b.add(sy);
        b.add(Join::new("j", vec![x, y], z, 1, |ins| ins[0] + ins[1]));
        b.add(Sink::with_capture("snk", z, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(15).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let got: Vec<(u64, u64)> = snk.captured(0).iter().map(|&(c, v)| (c, v)).collect();
        assert_eq!(got, vec![(5, 101), (9, 202)]);
    }

    /// M-Join across two MEB-buffered channels: the upstream arbiters must
    /// steer both sides to a common thread (via the join's thread-wise
    /// ready back-propagation) without oscillating.
    #[test]
    fn mjoin_pairs_matching_threads_through_mebs() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let (xa, xb) = (b.channel("xa", 2), b.channel("xb", 2));
        let (ya, yb) = (b.channel("ya", 2), b.channel("yb", 2));
        let z = b.channel("z", 2);
        let mut sx = Source::new("sx", xa, 2);
        let mut sy = Source::new("sy", ya, 2);
        for t in 0..2 {
            sx.extend(t, (0..10).map(|i| Tagged::new(t, i, i)));
            sy.extend(t, (0..10).map(|i| Tagged::new(t, i, 100 + i)));
        }
        b.add(sx);
        b.add(sy);
        b.add(ReducedMeb::new(
            "mx",
            xa,
            xb,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(ReducedMeb::new(
            "my",
            ya,
            yb,
            2,
            ArbiterKind::LeastRecent.build(),
        ));
        b.add(Join::new("j", vec![xb, yb], z, 2, |ins: &[&Tagged]| {
            assert_eq!(
                ins[0].thread, ins[1].thread,
                "join must pair same-thread tokens"
            );
            Tagged::new(ins[0].thread, ins[0].seq, ins[0].payload + ins[1].payload)
        }));
        b.add(Sink::with_capture("snk", z, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(50));
        circuit.run(200).expect("no oscillation, no deadlock");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 10);
        assert_eq!(snk.consumed(1), 10);
        for t in 0..2 {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "thread {t} order");
        }
    }

    /// A three-input join combines all inputs at once.
    #[test]
    fn three_way_join() {
        let mut b = CircuitBuilder::<u64>::new();
        let chs: Vec<_> = (0..3).map(|i| b.channel(format!("in{i}"), 1)).collect();
        let z = b.channel("z", 1);
        for (i, &ch) in chs.iter().enumerate() {
            let mut s = Source::new(format!("s{i}"), ch, 1);
            s.extend(0, [(i as u64 + 1) * 10]);
            b.add(s);
        }
        b.add(Join::new("j", chs.clone(), z, 1, |ins| {
            ins.iter().copied().sum()
        }));
        b.add(Sink::with_capture("snk", z, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(5).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        assert_eq!(snk.captured(0)[0].1, 60);
    }

    /// Buffered joins keep working when the downstream stalls randomly.
    #[test]
    fn mjoin_under_backpressure_conserves_tokens() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let (xa, xb) = (b.channel("xa", 2), b.channel("xb", 2));
        let (ya, yb) = (b.channel("ya", 2), b.channel("yb", 2));
        let z = b.channel("z", 2);
        let mut sx = Source::new("sx", xa, 2);
        let mut sy = Source::new("sy", ya, 2);
        for t in 0..2 {
            sx.extend(t, (0..15).map(|i| Tagged::new(t, i, i)));
            sy.extend(t, (0..15).map(|i| Tagged::new(t, i, i)));
        }
        b.add(sx);
        b.add(sy);
        b.add_boxed(MebKind::Full.build_with::<Tagged>("mx", xa, xb, 2, ArbiterKind::RoundRobin));
        b.add_boxed(MebKind::Reduced.build_with::<Tagged>(
            "my",
            ya,
            yb,
            2,
            ArbiterKind::RoundRobin,
        ));
        b.add(Join::new("j", vec![xb, yb], z, 2, |ins: &[&Tagged]| {
            ins[0].clone()
        }));
        b.add(Sink::new(
            "snk",
            z,
            2,
            ReadyPolicy::Random { p: 0.4, seed: 77 },
        ));
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(100));
        circuit.run(500).expect("clean");
        assert_eq!(circuit.stats().total_transfers(z), 30);
    }
}
