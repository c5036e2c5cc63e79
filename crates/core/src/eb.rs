//! The baseline single-thread elastic buffer (paper, Sec. II).
//!
//! An EB replaces a plain pipeline register with a 2-slot handshaking
//! stage: with one-cycle forward and backward handshake latency, any
//! elastic buffer needs a minimum storage of **two** data items (Carloni
//! et al., latency-insensitive design). The control is the 3-state FSM of
//! the paper's Fig. 6: EMPTY, HALF (one item) and FULL (two items).

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, FusedOpKind, Ports, ProtocolError,
    SlotView, TickCtx, Token,
};

/// Occupancy state of a (per-thread) elastic buffer control FSM.
///
/// This is exactly the 3-state FSM the reduced MEB replicates per thread
/// (paper, Fig. 6): the transition HALF → FULL is what the shared-buffer
/// gate restricts to a single thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EbState {
    /// No item stored.
    #[default]
    Empty,
    /// One item stored (in the main register).
    Half,
    /// Two items stored (main + auxiliary/shared register).
    Full,
}

impl EbState {
    /// Number of items the state represents.
    pub fn occupancy(self) -> usize {
        match self {
            EbState::Empty => 0,
            EbState::Half => 1,
            EbState::Full => 2,
        }
    }

    /// Applies one clock edge given whether an enqueue and/or a dequeue
    /// fired this cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on violations — enqueueing into FULL or
    /// dequeueing from EMPTY (the surrounding control must never let these
    /// fire). Inside a running circuit the buffer reports the error
    /// through [`TickCtx::fault`] and the kernel surfaces it as
    /// [`SimError::Component`](elastic_sim::SimError::Component).
    pub fn advance(self, enq: bool, deq: bool) -> Result<EbState, ProtocolError> {
        match (self, enq, deq) {
            (s, false, false) => Ok(s),
            (EbState::Empty, true, false) => Ok(EbState::Half),
            (EbState::Half, true, false) => Ok(EbState::Full),
            (EbState::Half, false, true) => Ok(EbState::Empty),
            (EbState::Half, true, true) => Ok(EbState::Half),
            (EbState::Full, false, true) => Ok(EbState::Half),
            (EbState::Full, true, true) => Ok(EbState::Full),
            (EbState::Empty, _, true) => Err(ProtocolError::BufferUnderflow),
            (EbState::Full, true, false) => Err(ProtocolError::BufferOverflow),
        }
    }
}

/// A 2-slot single-thread elastic buffer.
///
/// * `valid` downstream ⇔ at least one item stored;
/// * `ready` upstream ⇔ fewer than two items stored;
/// * both signals are functions of *registered* state only, so an EB cuts
///   every combinational handshake path — chains of EBs always settle.
///
/// # Examples
///
/// ```
/// use elastic_core::ElasticBuffer;
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let a = b.channel("in", 1);
/// let c = b.channel("out", 1);
/// let mut src = Source::new("src", a, 1);
/// src.extend(0, [1, 2, 3]);
/// b.add(src);
/// b.add(ElasticBuffer::new("eb", a, c));
/// b.add(Sink::with_capture("snk", c, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(8)?;
/// assert_eq!(circuit.stats().total_transfers(c), 3);
/// # Ok(())
/// # }
/// ```
pub struct ElasticBuffer<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    state: EbState,
    /// Head item (dequeued first).
    main: Option<T>,
    /// Second item, used only while FULL.
    aux: Option<T>,
}

impl<T: Token> ElasticBuffer<T> {
    /// An empty EB between `inp` and `out` (both single-thread channels).
    pub fn new(name: impl Into<String>, inp: ChannelId, out: ChannelId) -> Self {
        Self {
            name: name.into(),
            inp,
            out,
            state: EbState::Empty,
            main: None,
            aux: None,
        }
    }

    /// Current occupancy state.
    pub fn state(&self) -> EbState {
        self.state
    }

    /// Number of stored items (0–2).
    pub fn occupancy(&self) -> usize {
        self.state.occupancy()
    }
}

impl<T: Token> Component<T> for ElasticBuffer<T> {
    fn op_kind(&self) -> FusedOpKind {
        FusedOpKind::Eb
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Valid and ready are both functions of registered state alone —
        // the EB is a full combinational cut, which is exactly what makes
        // it a legal loop breaker for the rank schedule.
        Vec::new()
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        // Both handshake outputs depend only on registered state.
        ctx.set_ready(self.inp, 0, self.state != EbState::Full);
        match &self.main {
            Some(head) if self.state != EbState::Empty => {
                ctx.drive_token_ref(self.out, 0, head);
            }
            _ => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        let enq = ctx.fired(self.inp, 0);
        let deq = ctx.fired(self.out, 0);
        if deq {
            // Shift: the auxiliary item (if any) becomes the new head.
            self.main = self.aux.take();
        }
        if enq {
            let item = ctx.data(self.inp).cloned();
            debug_assert!(item.is_some(), "fired enqueue must carry data");
            if self.main.is_none() {
                self.main = item;
            } else {
                debug_assert!(self.aux.is_none(), "enqueue into FULL EB");
                self.aux = item;
            }
        }
        match self.state.advance(enq, deq) {
            Ok(next) => self.state = next,
            Err(e) => {
                ctx.fault(e);
                return;
            }
        }
        debug_assert_eq!(
            self.state.occupancy(),
            usize::from(self.main.is_some()) + usize::from(self.aux.is_some()),
            "EB state must agree with register occupancy"
        );
    }

    fn reset(&mut self) -> bool {
        self.state = EbState::Empty;
        self.main = None;
        self.aux = None;
        true
    }

    fn next_event(&self, _now: u64) -> elastic_sim::NextEvent {
        elastic_sim::NextEvent::Idle
    }

    fn slots(&self) -> Vec<SlotView> {
        let view = |name: &str, item: &Option<T>| match item {
            Some(t) => SlotView::full(name, 0, t.label()),
            None => SlotView::empty(name),
        };
        vec![view("main", &self.main), view("aux", &self.aux)]
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};

    #[test]
    fn fsm_transitions_match_the_paper() {
        use EbState::*;
        assert_eq!(Empty.advance(true, false), Ok(Half));
        assert_eq!(Half.advance(true, false), Ok(Full));
        assert_eq!(Half.advance(false, true), Ok(Empty));
        assert_eq!(Half.advance(true, true), Ok(Half));
        assert_eq!(Full.advance(false, true), Ok(Half));
        assert_eq!(Full.advance(true, true), Ok(Full));
        assert_eq!(Empty.advance(false, false), Ok(Empty));
    }

    #[test]
    fn fsm_rejects_underflow() {
        assert_eq!(
            EbState::Empty.advance(false, true),
            Err(ProtocolError::BufferUnderflow)
        );
        assert_eq!(
            EbState::Empty.advance(true, true),
            Err(ProtocolError::BufferUnderflow)
        );
    }

    #[test]
    fn fsm_rejects_overflow() {
        assert_eq!(
            EbState::Full.advance(true, false),
            Err(ProtocolError::BufferOverflow)
        );
    }

    fn eb_chain(n_ebs: usize, tokens: u64, sink: ReadyPolicy) -> (u64, Vec<u64>) {
        let mut b = CircuitBuilder::<u64>::new();
        let chs = b.channels("ch", 1, n_ebs + 1);
        let mut src = Source::new("src", chs[0], 1);
        src.extend(0, 0..tokens);
        b.add(src);
        for i in 0..n_ebs {
            b.add(ElasticBuffer::new(format!("eb{i}"), chs[i], chs[i + 1]));
        }
        b.add(Sink::with_capture("snk", chs[n_ebs], 1, sink));
        let mut circuit = b.build().expect("valid");
        circuit
            .run(4 * tokens + 4 * n_ebs as u64 + 10)
            .expect("clean");
        let snk: &Sink<u64> = circuit.get("snk").expect("sink");
        let outs = snk.captured(0).iter().map(|(_, t)| *t).collect();
        (snk.consumed(0), outs)
    }

    #[test]
    fn chain_delivers_all_tokens_in_order() {
        let (n, outs) = eb_chain(4, 20, ReadyPolicy::Always);
        assert_eq!(n, 20);
        assert_eq!(outs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn chain_sustains_full_throughput() {
        // A pipeline of EBs must not throttle a free-flowing stream:
        // after the fill latency, one token per cycle.
        let mut b = CircuitBuilder::<u64>::new();
        let chs = b.channels("ch", 1, 4);
        let mut src = Source::new("src", chs[0], 1);
        src.extend(0, 0..100u64);
        b.add(src);
        for i in 0..3 {
            b.add(ElasticBuffer::new(format!("eb{i}"), chs[i], chs[i + 1]));
        }
        b.add(Sink::new("snk", chs[3], 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(40).expect("clean");
        // 3 cycles of fill latency, then 1 token/cycle.
        assert_eq!(circuit.stats().total_transfers(chs[3]), 40 - 3);
    }

    #[test]
    fn chain_survives_random_backpressure_in_order() {
        let (n, outs) = eb_chain(3, 50, ReadyPolicy::Random { p: 0.4, seed: 17 });
        assert_eq!(n, 50);
        assert_eq!(outs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn stalled_eb_fills_to_two_items_then_backpressures() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..10u64);
        b.add(src);
        b.add(ElasticBuffer::new("eb", a, c));
        b.add(Sink::new("snk", c, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        // Exactly two tokens entered (the EB's two slots), then stall.
        assert_eq!(circuit.stats().total_transfers(a), 2);
        let eb: &ElasticBuffer<u64> = circuit.get("eb").expect("eb");
        assert_eq!(eb.state(), EbState::Full);
        assert_eq!(eb.occupancy(), 2);
    }

    #[test]
    fn slots_expose_main_and_aux() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let c = b.channel("c", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, [7, 8]);
        b.add(src);
        b.add(ElasticBuffer::new("eb", a, c));
        b.add(Sink::new("snk", c, 1, ReadyPolicy::Never));
        let mut circuit = b.build().expect("valid");
        circuit.run(5).expect("clean");
        let eb: &ElasticBuffer<u64> = circuit.get("eb").expect("eb");
        let slots = eb.slots();
        assert_eq!(slots[0].occupant, Some((0, "7".to_string())));
        assert_eq!(slots[1].occupant, Some((0, "8".to_string())));
    }
}
