//! Merge: reconvergence of branch paths onto one channel (paper, Fig. 3
//! and Fig. 7(d)).
//!
//! Per thread, at most one input path carries data (guaranteed by the
//! matching branch), so per-thread merging is trivial — "two baseline
//! merge units suffice" in the paper's construction. Across *threads*,
//! however, two different threads may arrive on the two paths in the same
//! cycle while the output channel can carry only one thread's data.
//! The paper does not elaborate this case; this implementation adds a
//! per-cycle selector (downstream-ready-first, rotating between
//! inputs) so the MT channel invariant always holds. The non-selected
//! input simply sees `ready` low and retries — no token is lost.
//! This clarification is recorded in `DESIGN.md`.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports, TickCtx,
    Token,
};

/// An N-input merge onto one channel.
///
/// # Examples
///
/// Reconverging a branch:
///
/// ```
/// use elastic_core::{Branch, Merge};
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let x = b.channel("x", 1);
/// let hi = b.channel("hi", 1);
/// let lo = b.channel("lo", 1);
/// let y = b.channel("y", 1);
/// let mut src = Source::new("src", x, 1);
/// src.extend(0, [3, 14, 6]);
/// b.add(src);
/// b.add(Branch::new("br", x, hi, lo, 1, |v| *v >= 10));
/// b.add(Merge::new("mg", vec![hi, lo], y, 1));
/// b.add(Sink::with_capture("snk", y, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(8)?;
/// let snk: &Sink<u64> = circuit.get("snk").expect("sink");
/// assert_eq!(snk.consumed_total(), 3);
/// # Ok(())
/// # }
/// ```
pub struct Merge<T: Token> {
    name: String,
    inputs: Vec<ChannelId>,
    out: ChannelId,
    /// Rotating preference among inputs (committed on fire).
    prefer: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Token> Merge<T> {
    /// A merge of `inputs` onto `out`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<ChannelId>,
        out: ChannelId,
        _threads: usize,
    ) -> Self {
        assert!(inputs.len() >= 2, "a merge needs at least two inputs");
        Self {
            name: name.into(),
            inputs,
            out,
            prefer: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Chooses the `(input index, thread)` to forward this settle
    /// iteration. Scans inputs in rotating-preference order over their
    /// packed valid masks — no candidate list is materialised.
    fn choose(&self, ctx: &EvalCtx<'_, T>) -> Option<(usize, usize)> {
        let n = self.inputs.len();
        // Ready-first, rotating among inputs.
        for k in 0..n {
            let i = (self.prefer + k) % n;
            for t in ctx.valid_mask(self.inputs[i]).iter_ones() {
                if ctx.ready(self.out, t) {
                    return Some((i, t));
                }
            }
        }
        // Stalled offer: first asserted thread of the preferred input.
        for k in 0..n {
            let i = (self.prefer + k) % n;
            if let Some(t) = ctx.valid_mask(self.inputs[i]).first_one() {
                return Some((i, t));
            }
        }
        None
    }

    /// Drives the handshake for the choice `chosen`, and the data word
    /// when nothing is chosen: `valid(out)` for the chosen thread, the
    /// chosen input's `ready` if the output takes it, every other input
    /// unready.
    fn drive_handshake(&self, ctx: &mut EvalCtx<'_, T>, chosen: Option<(usize, usize)>) {
        match chosen {
            Some((i, t)) => {
                ctx.set_valid_only(self.out, t);
                let pass = ctx.ready(self.out, t);
                for (j, &ch) in self.inputs.iter().enumerate() {
                    if j == i && pass {
                        ctx.set_ready_only(ch, t);
                    } else {
                        ctx.drive_unready(ch);
                    }
                }
            }
            None => {
                ctx.drive_idle(self.out);
                for &ch in &self.inputs {
                    ctx.drive_unready(ch);
                }
            }
        }
    }

    /// The reference evaluation [`eval`](Component::eval) is checked
    /// against: clones the chosen input's data word on every call. Kept
    /// so tests can run a circuit with it; not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let chosen = self.choose(ctx);
        if let Some((i, _)) = chosen {
            let data = ctx.data(self.inputs[i]).cloned();
            ctx.set_data(self.out, data);
        }
        self.drive_handshake(ctx, chosen);
    }
}

impl<T: Token> Component<T> for Merge<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Merge
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new(self.inputs.clone(), [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // The selector reads every input's valid mask and the output's
        // ready mask; its choice determines both valid(out) and every
        // input's ready. The ready(out)→valid(out) path is *strict*: the
        // merge has no anti-swap damping, so it must not sit on an
        // unregistered cycle (loops through a merge need an EB/MEB cut).
        let mut paths = vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: false,
        }];
        for &ch in &self.inputs {
            paths.push(CombPath::ValidToValid {
                from: ch,
                to: self.out,
            });
            paths.push(CombPath::ReadyToReady {
                from: self.out,
                to: ch,
            });
            for &other in &self.inputs {
                // Which input wins depends on every input's valid bits,
                // including its own (i == j).
                paths.push(CombPath::ValidToReady {
                    from: other,
                    to: ch,
                });
            }
        }
        paths
    }

    /// Forwards the chosen input's data word without a clone when it is
    /// unchanged; otherwise the same drive as
    /// [`eval_reference`](Merge::eval_reference).
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let chosen = self.choose(ctx);
        if let Some((i, _)) = chosen {
            ctx.forward_data(self.inputs[i], self.out);
        }
        self.drive_handshake(ctx, chosen);
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        // Rotate on every offered cycle (fired or stalled) so that neither
        // input nor any thread can be starved while the output is blocked.
        let offered = ctx.valid_mask(self.out).any();
        if offered {
            self.prefer = (self.prefer + 1) % self.inputs.len();
        }
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    fn reset(&mut self) -> bool {
        self.prefer = 0;
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::meb::ReducedMeb;
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    #[test]
    fn merge_interleaves_two_streams_without_loss() {
        let mut b = CircuitBuilder::<u64>::new();
        let p = b.channel("p", 1);
        let q = b.channel("q", 1);
        let y = b.channel("y", 1);
        let mut sp = Source::new("sp", p, 1);
        sp.extend(0, 0..10u64);
        let mut sq = Source::new("sq", q, 1);
        sq.extend(0, 100..110u64);
        b.add(sp);
        b.add(sq);
        b.add(Merge::new("mg", vec![p, q], y, 1));
        b.add(Sink::with_capture("snk", y, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(30).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed_total(), 20);
        // Rotation gives both inputs a fair share over time.
        let vals: Vec<u64> = snk.captured(0).iter().map(|&(_, v)| v).collect();
        let from_p = vals.iter().filter(|v| **v < 100).count();
        assert_eq!(from_p, 10);
    }

    #[test]
    fn branch_merge_roundtrip_conserves_all_tokens() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let hi = b.channel("hi", 1);
        let lo = b.channel("lo", 1);
        let y = b.channel("y", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..40u64);
        b.add(src);
        b.add(crate::ops::Branch::new("br", x, hi, lo, 1, |v| v % 3 == 0));
        b.add(Merge::new("mg", vec![hi, lo], y, 1));
        b.add(Sink::with_capture(
            "snk",
            y,
            1,
            ReadyPolicy::Random { p: 0.6, seed: 9 },
        ));
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(60));
        circuit.run(200).expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let mut vals: Vec<u64> = snk.captured(0).iter().map(|&(_, v)| v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..40).collect::<Vec<_>>());
    }

    /// Two MEB-buffered paths carrying *different* threads converge: the
    /// merge must serialize them one thread per cycle (the DESIGN.md
    /// clarification) and never violate the channel invariant — the
    /// kernel would error the run if it did.
    #[test]
    fn mmerge_serializes_distinct_threads_from_two_paths() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let pa = b.channel("pa", 2);
        let pb = b.channel("pb", 2);
        let qa = b.channel("qa", 2);
        let qb = b.channel("qb", 2);
        let y = b.channel("y", 2);
        // Path P carries only thread 0; path Q only thread 1.
        let mut sp = Source::new("sp", pa, 2);
        sp.extend(0, (0..10).map(|i| Tagged::new(0, i, i)));
        let mut sq = Source::new("sq", qa, 2);
        sq.extend(1, (0..10).map(|i| Tagged::new(1, i, i)));
        b.add(sp);
        b.add(sq);
        b.add(ReducedMeb::new(
            "mp",
            pa,
            pb,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(ReducedMeb::new(
            "mq",
            qa,
            qb,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Merge::new("mg", vec![pb, qb], y, 2));
        b.add(Sink::with_capture("snk", y, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(60).expect("invariant holds through the merge");
        let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
        assert_eq!(snk.consumed(0), 10);
        assert_eq!(snk.consumed(1), 10);
        for t in 0..2 {
            let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
            assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "thread {t} order");
        }
    }

    #[test]
    fn merge_respects_downstream_backpressure() {
        let mut b = CircuitBuilder::<u64>::new();
        let p = b.channel("p", 1);
        let q = b.channel("q", 1);
        let y = b.channel("y", 1);
        let mut sp = Source::new("sp", p, 1);
        sp.extend(0, [1, 2]);
        let mut sq = Source::new("sq", q, 1);
        sq.extend(0, [3, 4]);
        b.add(sp);
        b.add(sq);
        b.add(Merge::new("mg", vec![p, q], y, 1));
        b.add(Sink::new("snk", y, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y), 0);
        assert_eq!(circuit.stats().total_transfers(p), 0);
        assert_eq!(circuit.stats().total_transfers(q), 0);
    }
}
