//! Branch: data-dependent routing (if-then-else divergence; paper, Fig. 3
//! and Fig. 7(c)).
//!
//! The condition travels *with* the token: "the active valid bit of the
//! input elastic channel reveals to which thread the condition
//! corresponds" — here the condition is a pure function of the token, so
//! each thread's token self-selects its path.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, NextEvent, Ports,
    ThreadMask, TickCtx, Token,
};

/// A two-way conditional router.
///
/// Tokens for which `cond` returns `true` exit on `out_true`, others on
/// `out_false`. The handshake is pass-through per thread: the input is
/// ready exactly when the selected output is ready.
///
/// # Examples
///
/// ```
/// use elastic_core::Branch;
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let x = b.channel("x", 1);
/// let even = b.channel("even", 1);
/// let odd = b.channel("odd", 1);
/// let mut src = Source::new("src", x, 1);
/// src.extend(0, [1, 2, 3, 4]);
/// b.add(src);
/// b.add(Branch::new("br", x, even, odd, 1, |v| v % 2 == 0));
/// b.add(Sink::with_capture("se", even, 1, ReadyPolicy::Always));
/// b.add(Sink::with_capture("so", odd, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(8)?;
/// let se: &Sink<u64> = circuit.get("se").expect("sink");
/// let evens: Vec<u64> = se.captured(0).iter().map(|(_, v)| *v).collect();
/// assert_eq!(evens, vec![2, 4]);
/// # Ok(())
/// # }
/// ```
pub struct Branch<T: Token> {
    name: String,
    inp: ChannelId,
    out_true: ChannelId,
    out_false: ChannelId,
    threads: usize,
    cond: Box<dyn Fn(&T) -> bool + Send>,
    /// Scratch for the `ready(in)` word.
    ready: ThreadMask,
}

impl<T: Token> Branch<T> {
    /// A branch routing `inp` to `out_true`/`out_false` according to
    /// `cond`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out_true: ChannelId,
        out_false: ChannelId,
        threads: usize,
        cond: impl Fn(&T) -> bool + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            inp,
            out_true,
            out_false,
            threads,
            cond: Box::new(cond),
            ready: ThreadMask::new(threads),
        }
    }

    /// The selected and the other output for the offered token.
    fn outputs(&self, ctx: &EvalCtx<'_, T>) -> (ChannelId, ChannelId) {
        match ctx.data(self.inp).map(|d| (self.cond)(d)) {
            Some(true) => (self.out_true, self.out_false),
            _ => (self.out_false, self.out_true),
        }
    }

    /// The per-thread reference evaluation [`eval`](Component::eval) is
    /// checked against: drives `valid`/`ready` bit by bit and clones the
    /// data word on every call. Kept so tests can run a circuit with it;
    /// not a production path.
    #[doc(hidden)]
    pub fn eval_reference(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let (sel, other) = self.outputs(ctx);
        for t in 0..self.threads {
            let vin = ctx.valid(self.inp, t);
            ctx.set_valid(sel, t, vin);
            ctx.set_valid(other, t, false);
            ctx.set_ready(self.inp, t, vin && ctx.ready(sel, t));
        }
        let data = ctx.data(self.inp).cloned();
        ctx.set_data(sel, data);
        ctx.set_data(other, None);
    }
}

impl<T: Token> Component<T> for Branch<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Branch
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out_true, self.out_false])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // The condition is computed from the input token (data travels
        // with valid), steering valid to one output; ready(inp) reads the
        // input's own valid (to know which path is selected) and the
        // selected output's ready.
        vec![
            CombPath::ValidToValid {
                from: self.inp,
                to: self.out_true,
            },
            CombPath::ValidToValid {
                from: self.inp,
                to: self.out_false,
            },
            CombPath::ValidToReady {
                from: self.inp,
                to: self.inp,
            },
            CombPath::ReadyToReady {
                from: self.out_true,
                to: self.inp,
            },
            CombPath::ReadyToReady {
                from: self.out_false,
                to: self.inp,
            },
        ]
    }

    /// Word-level evaluation: `valid(sel) = valid(in)` and
    /// `ready(in) = valid(in) ∧ ready(sel)`, one word commit each; the
    /// other output is driven idle and the data word is forwarded to the
    /// selected output without a clone when it is unchanged.
    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let (sel, other) = self.outputs(ctx);
        ctx.forward_valid(self.inp, sel, None);
        ctx.drive_idle(other);
        self.ready
            .assign_and(ctx.valid_mask(self.inp), ctx.ready_mask(sel));
        ctx.set_ready_mask(self.inp, &self.ready);
        ctx.forward_data(self.inp, sel);
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
    use crate::meb::ReducedMeb;
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    #[test]
    fn routes_by_condition_preserving_order() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let hi = b.channel("hi", 1);
        let lo = b.channel("lo", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, [5, 15, 7, 20, 1, 30]);
        b.add(src);
        b.add(Branch::new("br", x, hi, lo, 1, |v| *v >= 10));
        b.add(Sink::with_capture("sh", hi, 1, ReadyPolicy::Always));
        b.add(Sink::with_capture("sl", lo, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        let sh: &Sink<u64> = circuit.get("sh").expect("sink");
        let sl: &Sink<u64> = circuit.get("sl").expect("sink");
        let highs: Vec<u64> = sh.captured(0).iter().map(|&(_, v)| v).collect();
        let lows: Vec<u64> = sl.captured(0).iter().map(|&(_, v)| v).collect();
        assert_eq!(highs, vec![15, 20, 30]);
        assert_eq!(lows, vec![5, 7, 1]);
    }

    #[test]
    fn blocked_path_stalls_only_tokens_routed_to_it() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let hi = b.channel("hi", 1);
        let lo = b.channel("lo", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, [1, 2, 12, 3]);
        b.add(src);
        b.add(Branch::new("br", x, hi, lo, 1, |v| *v >= 10));
        b.add(Sink::with_capture("sh", hi, 1, ReadyPolicy::Never));
        b.add(Sink::with_capture("sl", lo, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        let sl: &Sink<u64> = circuit.get("sl").expect("sink");
        // 1 and 2 pass; 12 blocks the head; 3 never arrives (in-order).
        let lows: Vec<u64> = sl.captured(0).iter().map(|&(_, v)| v).collect();
        assert_eq!(lows, vec![1, 2]);
    }

    /// M-Branch: threads routed independently through a shared branch,
    /// fed by a reduced MEB.
    #[test]
    fn mbranch_routes_each_threads_tokens() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x0 = b.channel("x0", 2);
        let x1 = b.channel("x1", 2);
        let t_out = b.channel("t", 2);
        let f_out = b.channel("f", 2);
        let mut src = Source::new("src", x0, 2);
        for t in 0..2 {
            src.extend(t, (0..8).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add(ReducedMeb::new(
            "meb",
            x0,
            x1,
            2,
            ArbiterKind::RoundRobin.build(),
        ));
        b.add(Branch::new("br", x1, t_out, f_out, 2, |tok: &Tagged| {
            tok.payload % 2 == 0
        }));
        b.add(Sink::with_capture("st", t_out, 2, ReadyPolicy::Always));
        b.add(Sink::with_capture("sf", f_out, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(40).expect("clean");
        let st: &Sink<Tagged> = circuit.get("st").expect("sink");
        let sf: &Sink<Tagged> = circuit.get("sf").expect("sink");
        for t in 0..2 {
            let evens: Vec<u64> = st.captured(t).iter().map(|(_, tok)| tok.payload).collect();
            let odds: Vec<u64> = sf.captured(t).iter().map(|(_, tok)| tok.payload).collect();
            assert_eq!(evens, vec![0, 2, 4, 6], "thread {t} even path");
            assert_eq!(odds, vec![1, 3, 5, 7], "thread {t} odd path");
        }
    }
}
